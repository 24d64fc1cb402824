/**
 * @file
 * Byte histogram for the byte-plane kernels (bytesort, suffix sorting).
 */

#ifndef ATC_UTIL_BYTE_COUNTS_HPP_
#define ATC_UTIL_BYTE_COUNTS_HPP_

#include <cstddef>
#include <cstdint>

namespace atc::util {

/**
 * Count the bytes of data[0, n) into cnt[0, 256). Four interleaved
 * tables, so a run of equal bytes does not serialize on one counter's
 * store-to-load forwarding.
 */
inline void
byteCounts(const uint8_t *data, size_t n, size_t *cnt)
{
    uint32_t h[4][256] = {};
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        h[0][data[i]]++;
        h[1][data[i + 1]]++;
        h[2][data[i + 2]]++;
        h[3][data[i + 3]]++;
    }
    for (; i < n; ++i)
        h[0][data[i]]++;
    for (int c = 0; c < 256; ++c)
        cnt[c] = size_t(h[0][c]) + h[1][c] + h[2][c] + h[3][c];
}

} // namespace atc::util

#endif // ATC_UTIL_BYTE_COUNTS_HPP_

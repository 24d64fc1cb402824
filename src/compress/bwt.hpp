/**
 * @file
 * Burrows-Wheeler transform (forward and inverse).
 *
 * Suffix-array based variant: the input is treated as if followed by a
 * unique sentinel smaller than every byte; the sentinel itself is not
 * emitted, its row index (the primary index) is returned instead.
 */

#ifndef ATC_COMPRESS_BWT_HPP_
#define ATC_COMPRESS_BWT_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atc::comp {

/** Result of a forward BWT. */
struct BwtResult
{
    /** Transformed bytes, same length as the input. */
    std::vector<uint8_t> data;
    /**
     * Row of the dropped sentinel character, in [1, n] for nonempty
     * input. Required to invert the transform.
     */
    uint32_t primary = 0;
};

/**
 * Forward transform of [data, data+n): the final induce of the SA-IS
 * suffix sort (implemented in sais.cpp), which writes each row's byte
 * instead of its suffix.
 * @throws util::Error when n >= 2^31
 */
BwtResult bwtForward(const uint8_t *data, size_t n);

/**
 * Inverse transform into @p out (n bytes), given the exact byte
 * histogram of @p data (the BWC decoder gets it from its RLE/MTF pass).
 *
 * One scatter builds a packed table tt[row] = next row << 8 | first
 * byte, carrying each byte value's cursor in a register across runs of
 * equal bytes; the walk is then one dependent load per output byte.
 * Word is the packing: uint32_t covers blocks below 2^24 bytes,
 * uint64_t anything larger. bwtInverse picks the narrower.
 *
 * @param data    transformed bytes
 * @param n       length
 * @param primary primary index returned by bwtForward
 * @param counts  256 per-byte counts of @p data; must be exact
 * @param out     receives the original n bytes; may be @p data (the
 *                walk reads only the table)
 * @throws util::Error when @p primary is out of range or the rows do
 *         not form one cycle (corrupt input)
 */
template <typename Word>
void bwtInverseWith(const uint8_t *data, size_t n, size_t primary,
                    const size_t *counts, uint8_t *out);

extern template void bwtInverseWith<uint32_t>(const uint8_t *, size_t,
                                              size_t, const size_t *,
                                              uint8_t *);
extern template void bwtInverseWith<uint64_t>(const uint8_t *, size_t,
                                              size_t, const size_t *,
                                              uint8_t *);

/** bwtInverseWith on the narrowest packing that holds n + 1 rows. */
void bwtInverse(const uint8_t *data, size_t n, size_t primary,
                const size_t *counts, uint8_t *out);

/** Inverse transform, counting the histogram itself. */
std::vector<uint8_t> bwtInverse(const uint8_t *data, size_t n,
                                size_t primary);

} // namespace atc::comp

#endif // ATC_COMPRESS_BWT_HPP_

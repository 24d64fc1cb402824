/**
 * @file
 * Linear-time suffix sorting by induced sorting (SA-IS), and the
 * Burrows-Wheeler transform built on it.
 *
 * Nong/Zhang/Chan's algorithm in Yuta Mori's sais-lite layout: the top
 * level reads the byte block itself, suffix types are derived on the
 * fly from adjacent symbols, LMS substring lengths and names live in
 * the free half of the suffix array, the reduced string in its tail,
 * and the final induce can write each row's BWT byte straight into its
 * slot. bwtForward (bwt.hpp) is that final induce, so the forward BWT
 * needs the n-word suffix array and its n-byte output, nothing else.
 * This is the engine behind the BWC codec (the stand-in for the
 * paper's bzip2 back end); O(n) time.
 */

#ifndef ATC_COMPRESS_SAIS_HPP_
#define ATC_COMPRESS_SAIS_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atc::comp {

/**
 * Compute the suffix array of @p data.
 *
 * Suffix i is data[i..n-1]; suffixes are compared as if the string were
 * followed by a sentinel strictly smaller than every byte value.
 *
 * @param data input bytes (may be null when n == 0)
 * @param n    input length, below 2^31
 * @return permutation sa of [0, n) with suffix sa[0] < suffix sa[1] < ...
 * @throws util::Error when n >= 2^31
 */
std::vector<int32_t> suffixArray(const uint8_t *data, size_t n);

} // namespace atc::comp

#endif // ATC_COMPRESS_SAIS_HPP_

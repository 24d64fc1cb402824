/**
 * @file
 * Move-to-front recoding over the byte alphabet.
 *
 * Applied after the BWT: local symbol reuse becomes runs of small
 * values (mostly zeros), which the zero-run RLE and the entropy coder
 * then squeeze. Both directions are exact inverses; the whole-buffer
 * decode is fused with the RLE decode (rleMtfDecode in rle.hpp).
 */

#ifndef ATC_COMPRESS_MTF_HPP_
#define ATC_COMPRESS_MTF_HPP_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace atc::comp {

/** Stateful move-to-front coder (alphabet of 256 byte values). */
class MtfCoder
{
  public:
    /** Start from the identity alphabet ordering 0,1,...,255. */
    MtfCoder();

    /** Encode one byte: emit its rank and move it to the front. */
    uint8_t encode(uint8_t value);

    /** Decode one rank back to the byte value, updating the ordering. */
    uint8_t
    decode(uint8_t rank)
    {
        uint8_t value = order_[rank];
        std::memmove(order_ + 1, order_, rank);
        order_[0] = value;
        return value;
    }

    /** @return the value rank 0 decodes to (a zero run's byte). */
    uint8_t front() const { return order_[0]; }

    /** Reset to the identity ordering. */
    void reset();

  private:
    uint8_t order_[256];
};

/** Encode a whole buffer (fresh coder state). */
std::vector<uint8_t> mtfEncode(const uint8_t *data, size_t n);

} // namespace atc::comp

#endif // ATC_COMPRESS_MTF_HPP_

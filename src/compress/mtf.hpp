/**
 * @file
 * Move-to-front recoding over the byte alphabet.
 *
 * Applied after the BWT: local symbol reuse becomes runs of small
 * values (mostly zeros), which the zero-run RLE and the entropy coder
 * then squeeze. Both directions are exact inverses; whole buffers are
 * coded fused with the zero-run recoding (mtfRleEncode and
 * rleMtfDecode in rle.hpp).
 */

#ifndef ATC_COMPRESS_MTF_HPP_
#define ATC_COMPRESS_MTF_HPP_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace atc::comp {

/** Stateful move-to-front coder (alphabet of 256 byte values). */
class MtfCoder
{
  public:
    /** Start from the identity alphabet ordering 0,1,...,255. */
    MtfCoder() { reset(); }

    /** Encode one byte: emit its rank and move it to the front. */
    uint8_t
    encode(uint8_t value)
    {
        if (order_[0] == value)
            return 0;
        // Locate the rank with a vectorized scan, then shift the prefix
        // down in one memmove — the table always contains all 256
        // values, so the search cannot miss.
        const uint8_t *pos = static_cast<const uint8_t *>(
            std::memchr(order_, value, sizeof(order_)));
        size_t rank = static_cast<size_t>(pos - order_);
        std::memmove(order_ + 1, order_, rank);
        order_[0] = value;
        return static_cast<uint8_t>(rank);
    }

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
    void
    reset()
    {
        for (int i = 0; i < 256; ++i)
            order_[i] = static_cast<uint8_t>(i);
    }

  private:
    uint8_t order_[256];
};

} // namespace atc::comp

#endif // ATC_COMPRESS_MTF_HPP_

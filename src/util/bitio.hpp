/**
 * @file
 * Bit-granular writer/reader on top of byte streams.
 *
 * Used by the Huffman coders. Bits are packed MSB-first within each
 * byte, which keeps canonical-Huffman codes comparable as integers.
 */

#ifndef ATC_UTIL_BITIO_HPP_
#define ATC_UTIL_BITIO_HPP_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bytestream.hpp"
#include "util/status.hpp"

namespace atc::util {

/**
 * MSB-first bit writer accumulating into a ByteSink. Fields collect in
 * a 64-bit accumulator; every 32 complete bits go to the sink as one
 * 4-byte write, the rest on alignAndFlush().
 */
class BitWriter
{
  public:
    /** Write into @p sink, which must outlive the writer. */
    explicit BitWriter(ByteSink &sink) : sink_(sink) {}

    /** Append the low @p nbits bits of @p value, MSB of the field first. */
    void
    writeBits(uint32_t value, int nbits)
    {
        ATC_ASSERT(nbits >= 0 && nbits <= 32);
        // fill_ < 32 here, so the accumulator keeps every pending bit.
        uint64_t field = value & ((uint64_t(1) << nbits) - 1);
        acc_ = acc_ << nbits | field;
        fill_ += nbits;
        bits_ += static_cast<uint64_t>(nbits);
        if (fill_ >= 32) {
            fill_ -= 32;
            put(static_cast<uint32_t>(acc_ >> fill_), 4);
        }
    }

    /** Append a single bit. */
    void writeBit(uint32_t bit) { writeBits(bit & 1u, 1); }

    /** Pad with zero bits to the next byte boundary and flush. */
    void
    alignAndFlush()
    {
        int pad = -fill_ & 7;
        bits_ += static_cast<uint64_t>(pad);
        fill_ += pad;
        if (fill_ > 0) {
            // fill_ <= 32: the pending bytes are the low fill_ bits.
            put(static_cast<uint32_t>(acc_ << pad << (32 - fill_)),
                fill_ / 8);
        }
        acc_ = 0;
        fill_ = 0;
    }

    /** @return total bits written (including alignment padding). */
    uint64_t bitCount() const { return bits_; }

  private:
    /** Write the top @p nbytes bytes of @p word, most significant first. */
    void
    put(uint32_t word, int nbytes)
    {
        uint8_t bytes[4] = {
            static_cast<uint8_t>(word >> 24), static_cast<uint8_t>(word >> 16),
            static_cast<uint8_t>(word >> 8), static_cast<uint8_t>(word)};
        sink_.write(bytes, static_cast<size_t>(nbytes));
    }

    ByteSink &sink_;
    uint64_t acc_ = 0;
    int fill_ = 0;
    uint64_t bits_ = 0;
};

/**
 * MSB-first bit reader over a ByteSource.
 *
 * Bits sit in a 64-bit buffer, most significant first. When the source
 * can lend its unread bytes (ByteSource::peek — memory and mmap frames)
 * the buffer refills up to 7 bytes at a time straight from that span
 * and the source is advanced only on align(). Otherwise (stdio) it
 * reads one byte at a time and never ahead of the bits asked for, so
 * whatever follows the bit stream is left in place.
 */
class BitReader
{
  public:
    /** Read from @p src, which must outlive the reader. */
    explicit BitReader(ByteSource &src) : src_(src)
    {
        size_t n = 0;
        if (const uint8_t *p = src.peek(n)) {
            p_ = p;
            end_ = p + n;
            committed_ = p;
        }
    }

    /**
     * Top the buffer up from the borrowed span (to at least 57 bits
     * while bytes remain); a no-op over a source without one.
     */
    void
    refill()
    {
        if (end_ - p_ >= 8) {
            uint64_t w;
            std::memcpy(&w, p_, 8);
            if constexpr (std::endian::native == std::endian::little)
                w = __builtin_bswap64(w);
            buf_ |= w >> bits_;
            p_ += (63 - bits_) >> 3;
            bits_ |= 56;
            return;
        }
        while (bits_ <= 56 && p_ < end_) {
            buf_ |= static_cast<uint64_t>(*p_++) << (56 - bits_);
            bits_ += 8;
        }
    }

    /** @return how many buffered bits are valid; peekBits() past them
     *  reads unspecified bits. */
    int bufferedBits() const { return bits_; }

    /** @return the next @p nbits (1..32) buffered bits, unconsumed. */
    uint32_t
    peekBits(int nbits) const
    {
        return static_cast<uint32_t>(buf_ >> (64 - nbits));
    }

    /** Drop @p nbits <= bufferedBits() bits. */
    void
    consume(int nbits)
    {
        buf_ <<= nbits;
        bits_ -= nbits;
    }

    /** Read @p nbits bits, MSB of the field first; throws on truncation. */
    uint32_t
    readBits(int nbits)
    {
        ATC_ASSERT(nbits >= 0 && nbits <= 32);
        if (nbits == 0)
            return 0;
        if (bits_ < nbits)
            fill(nbits);
        uint32_t value = peekBits(nbits);
        consume(nbits);
        return value;
    }

    /** Read a single bit; throws on truncation. */
    uint32_t readBit() { return readBits(1); }

    /**
     * Discard bits up to the next byte boundary and advance the source
     * past every byte consumed so far.
     */
    void
    align()
    {
        consume(bits_ & 7);
        if (p_ != nullptr) {
            size_t used = static_cast<size_t>(p_ - committed_) -
                          static_cast<size_t>(bits_ >> 3);
            src_.skip(used);
            committed_ += used;
        }
    }

  private:
    /** Buffer at least @p nbits (<= 32) bits or throw Error. */
    void
    fill(int nbits)
    {
        if (p_ != nullptr) {
            refill();
            if (bits_ < nbits) {
                // Leave the source exhausted, as a byte-wise read that
                // ran off its end would have.
                src_.skip(static_cast<size_t>(end_ - committed_));
                committed_ = end_;
                raise("byte source truncated");
            }
            return;
        }
        while (bits_ < nbits) {
            uint8_t b;
            src_.readExact(&b, 1);
            buf_ |= static_cast<uint64_t>(b) << (56 - bits_);
            bits_ += 8;
        }
    }

    ByteSource &src_;
    uint64_t buf_ = 0;
    int bits_ = 0;
    /** Borrowed span: next byte to load, its end, first unskipped byte. */
    const uint8_t *p_ = nullptr;
    const uint8_t *end_ = nullptr;
    const uint8_t *committed_ = nullptr;
};

} // namespace atc::util

#endif // ATC_UTIL_BITIO_HPP_

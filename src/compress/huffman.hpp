/**
 * @file
 * Canonical, length-limited Huffman coding.
 *
 * Entropy back end for both the BWC and LZH codecs. Code lengths are
 * derived from symbol frequencies with a standard Huffman tree, then
 * adjusted (Kraft-sum rebalancing, as in zlib) so no code exceeds the
 * length limit. Codes are canonical, so only the length of each symbol
 * needs to be stored in the stream.
 */

#ifndef ATC_COMPRESS_HUFFMAN_HPP_
#define ATC_COMPRESS_HUFFMAN_HPP_

#include <cstdint>
#include <vector>

#include "util/bitio.hpp"

namespace atc::comp {

/** Maximum supported code length (5-bit length fields in the stream). */
constexpr int kMaxCodeLen = 24;

/**
 * Compute canonical code lengths for @p freq (0 length = unused symbol).
 *
 * @param freq  per-symbol occurrence counts
 * @param limit maximum code length, <= kMaxCodeLen
 * @return per-symbol code lengths forming a prefix-free code
 */
std::vector<uint8_t> huffmanLengths(const std::vector<uint64_t> &freq,
                                    int limit = kMaxCodeLen);

/** Encoder table mapping symbols to canonical codes. */
class HuffmanEncoder
{
  public:
    /** Build codes directly from frequencies. */
    explicit HuffmanEncoder(const std::vector<uint64_t> &freq,
                            int limit = kMaxCodeLen);

    /** Build codes from precomputed lengths. */
    explicit HuffmanEncoder(const std::vector<uint8_t> &lengths);

    /** Serialize the code lengths (5 bits each) into @p bw. */
    void writeTable(util::BitWriter &bw) const;

    /** Emit the code of @p symbol; the symbol must be in use. */
    void
    writeSymbol(util::BitWriter &bw, int symbol) const
    {
        uint32_t e = packed_[symbol];
        bw.writeBits(e >> 8, static_cast<int>(e & 0xFF));
    }

    /** @return code length per symbol (0 = unused). */
    const std::vector<uint8_t> &lengths() const { return lengths_; }

  private:
    void buildCodes();

    std::vector<uint8_t> lengths_;
    // packed_[symbol] = canonical code << 8 | code length: one load
    // per symbol written (codes are at most kMaxCodeLen = 24 bits).
    std::vector<uint32_t> packed_;
};

/**
 * Decoder for canonical codes: one lookup in a 2^kLutBits-entry table
 * resolves every code up to kLutBits long; longer codes, and the last
 * few bits of a stream, take a bounded bit-at-a-time walk of the
 * canonical ranges up to kMaxCodeLen.
 */
class HuffmanDecoder
{
  public:
    /** Build from explicit code lengths. */
    explicit HuffmanDecoder(const std::vector<uint8_t> &lengths);

    /** Read a table serialized by HuffmanEncoder::writeTable. */
    static HuffmanDecoder readTable(util::BitReader &br, int alphabet);

    /** Decode one symbol; throws on invalid codes or truncation. */
    int
    decode(util::BitReader &br) const
    {
        br.refill();
        uint32_t e = lut_[br.peekBits(kLutBits)];
        int len = static_cast<int>(e & 0xFF);
        if (len != 0 && len <= br.bufferedBits()) {
            br.consume(len);
            return static_cast<int>(e >> 8);
        }
        return decodeSlow(br);
    }

    /** Codes up to this length decode with one table lookup. */
    static constexpr int kLutBits = 10;

  private:
    int decodeSlow(util::BitReader &br) const;

    // first_code_[l] is the canonical code value of the first code of
    // length l; first_index_[l] indexes sorted_symbols_.
    uint32_t first_code_[kMaxCodeLen + 2] = {};
    int32_t first_index_[kMaxCodeLen + 2] = {};
    uint16_t count_[kMaxCodeLen + 2] = {};
    std::vector<uint16_t> sorted_symbols_;
    // lut_[next kLutBits bits] = symbol << 8 | code length; 0 when the
    // code is longer than kLutBits or the prefix is unused.
    uint32_t lut_[1u << kLutBits] = {};
};

} // namespace atc::comp

#endif // ATC_COMPRESS_HUFFMAN_HPP_

/**
 * @file
 * BWC — the Burrows-Wheeler block codec.
 *
 * From-scratch stand-in for the paper's bzip2 back end, same algorithm
 * family: BWT (via SA-IS) -> move-to-front -> zero-run RLE -> canonical
 * Huffman, with a CRC-32 integrity check per block. Decoding runs the
 * Huffman, RLE and MTF stages as one pass into the inverse BWT's input.
 *
 * Block layout (after the stream framing's size header):
 *   u32  crc32 of the raw block
 *   varint BWT primary index
 *   huffman table (258 x 5 bits) + coded symbols, byte-aligned at end
 */

#ifndef ATC_COMPRESS_BWC_HPP_
#define ATC_COMPRESS_BWC_HPP_

#include "compress/codec.hpp"

namespace atc::comp {

/** Burrows-Wheeler codec; stateless and thread-compatible. */
class BwcCodec : public Codec
{
  public:
    std::string name() const override { return "bwc"; }
    void compressBlock(const uint8_t *data, size_t n,
                       util::ByteSink &out) const override;
    void decompressBlock(util::ByteSource &in, size_t raw_size,
                         std::vector<uint8_t> &out) const override;
};

} // namespace atc::comp

#endif // ATC_COMPRESS_BWC_HPP_

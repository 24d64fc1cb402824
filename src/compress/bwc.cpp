#include "compress/bwc.hpp"

#include "compress/bwt.hpp"
#include "compress/huffman.hpp"
#include "compress/rle.hpp"
#include "obs/metrics.hpp"
#include "util/bitio.hpp"
#include "util/crc32.hpp"

namespace atc::comp {

namespace {

// Stage-split codec accounting: aggregate micros per pipeline stage,
// both directions. Handles cached once; hot loops pay one relaxed
// add per block per stage.
struct CodecStageMetrics {
    obs::Counter &bwt_us;
    obs::Counter &mtf_rle_us;
    obs::Counter &entropy_us;
};

CodecStageMetrics &
encodeStages()
{
    static CodecStageMetrics m{
        obs::Registry::global().counter("codec.encode.bwt_us"),
        obs::Registry::global().counter("codec.encode.mtf_rle_us"),
        obs::Registry::global().counter("codec.encode.entropy_us"),
    };
    return m;
}

CodecStageMetrics &
decodeStages()
{
    static CodecStageMetrics m{
        obs::Registry::global().counter("codec.decode.bwt_us"),
        obs::Registry::global().counter("codec.decode.mtf_rle_us"),
        obs::Registry::global().counter("codec.decode.entropy_us"),
    };
    return m;
}

}  // namespace

void
BwcCodec::compressBlock(const uint8_t *data, size_t n,
                        util::ByteSink &out) const
{
    CodecStageMetrics &m = encodeStages();
    util::writeLE<uint32_t>(out, util::crc32(data, n));

    obs::StageTimer bwt_t(m.bwt_us);
    BwtResult bwt = bwtForward(data, n);
    bwt_t.stop();
    util::writeVarint(out, bwt.primary);

    // MTF and zero-run recoding in one pass over the BWT output, which
    // also counts the symbols for the Huffman code.
    obs::StageTimer mtf_t(m.mtf_rle_us);
    std::vector<uint64_t> freq(kRleAlphabet, 0);
    std::vector<uint16_t> symbols =
        mtfRleEncode(bwt.data.data(), bwt.data.size(), freq.data());
    bwt.data = {};
    mtf_t.stop();

    obs::StageTimer entropy_t(m.entropy_us);
    HuffmanEncoder enc(freq);
    util::BitWriter bw(out);
    enc.writeTable(bw);
    for (uint16_t s : symbols)
        enc.writeSymbol(bw, s);
    bw.alignAndFlush();
}

void
BwcCodec::decompressBlock(util::ByteSource &in, size_t raw_size,
                          std::vector<uint8_t> &out) const
{
    ATC_CHECK(raw_size <= kMaxFrameRawSize, "BWC block size out of range");
    CodecStageMetrics &m = decodeStages();
    uint32_t crc = util::readLE<uint32_t>(in);
    uint64_t primary = util::readVarint(in);

    obs::StageTimer entropy_t(m.entropy_us);
    util::BitReader br(in);
    HuffmanDecoder dec = HuffmanDecoder::readTable(br, kRleAlphabet);
    entropy_t.stop();

    // Huffman symbols -> RLE -> MTF in one pass, straight into the BWT
    // input, collecting the byte counts the inverse BWT needs. The
    // inverse then overwrites its own input with the block.
    obs::StageTimer mtf_t(m.mtf_rle_us);
    out.resize(raw_size);
    size_t counts[256] = {};
    size_t got = rleMtfDecode([&] { return dec.decode(br); }, out.data(),
                              raw_size, counts);
    br.align();
    ATC_CHECK(got == raw_size, "BWC block size mismatch");
    mtf_t.stop();

    obs::StageTimer bwt_t(m.bwt_us);
    bwtInverse(out.data(), raw_size, static_cast<size_t>(primary), counts,
               out.data());
    bwt_t.stop();
    ATC_CHECK(util::crc32(out.data(), out.size()) == crc,
              "BWC block CRC mismatch");
}

} // namespace atc::comp

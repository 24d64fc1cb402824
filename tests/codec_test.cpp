/**
 * @file
 * Tests for the block codecs (BWC, LZH, store) and the stream framing,
 * including corruption detection.
 */

#include <gtest/gtest.h>

#include <string>

#include "atc/bytesort.hpp"
#include "compress/bwc.hpp"
#include "compress/lzh.hpp"
#include "compress/stream.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

std::vector<uint8_t>
makeData(int mode, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i) {
        switch (mode) {
          case 0: // random
            data[i] = static_cast<uint8_t>(rng.below(256));
            break;
          case 1: // periodic
            data[i] = static_cast<uint8_t>((i / 7) & 15);
            break;
          case 2: // low entropy random
            data[i] = static_cast<uint8_t>(rng.below(3));
            break;
          default: // text-like
            data[i] = static_cast<uint8_t>('a' + rng.below(26));
            break;
        }
    }
    return data;
}

struct CodecCase
{
    std::string codec;
    int mode;
    size_t size;
};

class CodecRoundTrip : public testing::TestWithParam<CodecCase>
{
};

TEST_P(CodecRoundTrip, CompressDecompress)
{
    const auto &[name, mode, size] = GetParam();
    const comp::Codec &codec = comp::codecByName(name);
    auto data = makeData(mode, size, size * 31 + mode);
    auto compressed = comp::compressAll(codec, data.data(), data.size(),
                                        64 * 1024);
    auto back = comp::decompressAll(codec, compressed.data(),
                                    compressed.size());
    EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CodecRoundTrip,
    testing::Values(
        CodecCase{"bwc", 0, 0}, CodecCase{"bwc", 0, 1},
        CodecCase{"bwc", 0, 100000}, CodecCase{"bwc", 1, 100000},
        CodecCase{"bwc", 2, 100000}, CodecCase{"bwc", 3, 200000},
        CodecCase{"bwc", 1, 65536}, // exactly one block
        CodecCase{"bwc", 1, 65537}, // one block + 1 byte
        CodecCase{"lzh", 0, 0}, CodecCase{"lzh", 0, 1},
        CodecCase{"lzh", 0, 100000}, CodecCase{"lzh", 1, 100000},
        CodecCase{"lzh", 2, 100000}, CodecCase{"lzh", 3, 200000},
        CodecCase{"store", 0, 10000}, CodecCase{"store", 1, 0}));

TEST(CodecRegistry, KnowsAllCodecs)
{
    EXPECT_EQ(comp::codecByName("bwc").name(), "bwc");
    EXPECT_EQ(comp::codecByName("lzh").name(), "lzh");
    EXPECT_EQ(comp::codecByName("store").name(), "store");
    EXPECT_THROW(comp::codecByName("bzip2"), util::Error);
}

TEST(CodecRegistry, ListsBuiltins)
{
    auto &reg = comp::CodecRegistry::instance();
    EXPECT_TRUE(reg.has("bwc"));
    EXPECT_TRUE(reg.has("lzh"));
    EXPECT_TRUE(reg.has("store"));
    EXPECT_FALSE(reg.has("bzip2"));
    auto names = reg.names();
    EXPECT_GE(names.size(), 3u);
}

TEST(CodecRegistry, RuntimeRegistrationExtendsLookup)
{
    auto &reg = comp::CodecRegistry::instance();
    reg.add("null2", [](const comp::CodecSpec &spec)
                -> atc::util::StatusOr<
                    std::shared_ptr<const comp::Codec>> {
        if (!spec.params.empty())
            return util::Status::error("null2 takes no parameters");
        return std::shared_ptr<const comp::Codec>(
            std::make_shared<comp::StoreCodec>());
    });
    auto cc = reg.create("null2:block=2k");
    ASSERT_TRUE(cc.ok()) << cc.status().message();
    EXPECT_EQ(cc.value().block_size, 2048u);
    EXPECT_FALSE(reg.create("null2:junk=1").ok());
}

TEST(CodecSpec, ParsesPlainNames)
{
    auto spec = comp::CodecSpec::parse("bwc");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().name, "bwc");
    EXPECT_TRUE(spec.value().params.empty());
    EXPECT_EQ(spec.value().toString(), "bwc");
}

TEST(CodecSpec, ParsesParameters)
{
    auto spec = comp::CodecSpec::parse("bwc:block=900k,foo=bar");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().name, "bwc");
    ASSERT_EQ(spec.value().params.size(), 2u);
    ASSERT_NE(spec.value().find("block"), nullptr);
    EXPECT_EQ(*spec.value().find("block"), "900k");
    ASSERT_NE(spec.value().find("foo"), nullptr);
    EXPECT_EQ(*spec.value().find("foo"), "bar");
    EXPECT_EQ(spec.value().find("missing"), nullptr);
    EXPECT_EQ(spec.value().toString(), "bwc:block=900k,foo=bar");
}

TEST(CodecSpec, SizeParamHandlesSuffixes)
{
    auto spec = comp::CodecSpec::parse("x:a=7,b=2k,c=3m,d=1g");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().sizeParam("a", 0).value(), 7u);
    EXPECT_EQ(spec.value().sizeParam("b", 0).value(), 2048u);
    EXPECT_EQ(spec.value().sizeParam("c", 0).value(), 3u << 20);
    EXPECT_EQ(spec.value().sizeParam("d", 0).value(), 1u << 30);
    EXPECT_EQ(spec.value().sizeParam("absent", 42).value(), 42u);
}

TEST(CodecSpec, RejectsMalformedInput)
{
    for (const char *bad :
         {"", ":", "bwc:", "bwc:block", "bwc:block=", "bwc:=v",
          "bwc:block=1,", "bwc:block=1,block=2", "bw c", "bwc:a b=1"}) {
        EXPECT_FALSE(comp::CodecSpec::parse(bad).ok()) << "'" << bad
                                                       << "'";
    }
}

TEST(CodecSpec, RejectsMalformedSizes)
{
    // e/f: the digits pass the raw-value cap but the k/m/g multiplier
    // would wrap uint64_t — must be out-of-range, not a tiny size.
    auto spec = comp::CodecSpec::parse(
        "x:a=k,b=9q,c=0,d=12kb,e=281474976710656g,f=562949953421312k");
    ASSERT_TRUE(spec.ok());
    for (const char *key : {"a", "b", "c", "d", "e", "f"})
        EXPECT_FALSE(spec.value().sizeParam(key, 1).ok()) << key;
}

TEST(CodecSpec, RegistryRejectsUnknownParameters)
{
    EXPECT_FALSE(
        comp::CodecRegistry::instance().create("bwc:window=1k").ok());
    EXPECT_FALSE(
        comp::CodecRegistry::instance().create("lzh:level=9").ok());
}

TEST(CodecSpec, MakeCodecAppliesBlockParameter)
{
    comp::ConfiguredCodec cc = comp::makeCodec("lzh:block=64k");
    EXPECT_EQ(cc.codec->name(), "lzh");
    EXPECT_EQ(cc.block_size, 64u * 1024);
    EXPECT_EQ(cc.blockOr(123), 64u * 1024);
    EXPECT_EQ(cc.spec, "lzh:block=64k");

    comp::ConfiguredCodec plain = comp::makeCodec("lzh");
    EXPECT_EQ(plain.block_size, 0u);
    EXPECT_EQ(plain.blockOr(123), 123u);
    EXPECT_THROW(comp::makeCodec("bwc:block=x"), util::Error);
    EXPECT_THROW(comp::makeCodec("nope"), util::Error);
}

TEST(Bwc, CompressesPeriodicDataWell)
{
    auto data = makeData(1, 1 << 20, 1);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    EXPECT_LT(compressed.size(), data.size() / 100);
}

TEST(Bwc, BeatsLzhOnTextLikeData)
{
    auto data = makeData(3, 1 << 19, 2);
    auto bwc = comp::compressAll(comp::codecByName("bwc"), data.data(),
                                 data.size());
    auto lzh = comp::compressAll(comp::codecByName("lzh"), data.data(),
                                 data.size());
    // BWT+entropy coding approaches the ~4.7 bit/symbol source entropy;
    // LZ77 cannot find matches in memoryless random text.
    EXPECT_LT(bwc.size(), lzh.size());
}

TEST(Bwc, RandomDataDoesNotExplode)
{
    auto data = makeData(0, 100000, 3);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    // Huffman on incompressible bytes: bounded overhead.
    EXPECT_LT(compressed.size(), data.size() * 11 / 10);
}

/** One input of the encoder-output pin below. */
struct PinnedInput
{
    const char *name;
    std::vector<uint8_t> data;
};

/**
 * The pinned inputs: integer-only generators (util::Rng draws, no
 * libm), so every compiler and platform builds the same bytes.
 */
std::vector<PinnedInput>
pinnedInputs()
{
    auto rngBytes = [](uint64_t alphabet, size_t n, uint64_t seed) {
        util::Rng rng(seed);
        std::vector<uint8_t> d(n);
        for (auto &b : d)
            b = static_cast<uint8_t>(rng.below(alphabet));
        return d;
    };
    std::vector<PinnedInput> in;
    in.push_back({"alphabet2", rngBytes(2, 200000, 11)});
    in.push_back({"alphabet4", rngBytes(4, 200000, 12)});
    in.push_back({"alphabet256", rngBytes(256, 200000, 13)});
    in.push_back({"constant", std::vector<uint8_t>(300000, 0x5A)});
    std::vector<uint8_t> two_run(150000, 'a');
    two_run.resize(300000, 'b');
    in.push_back({"two_run", std::move(two_run)});

    // Bytesort planes of an address stream with locality: a base that
    // jumps now and then, small offsets around it.
    util::Rng rng(14);
    std::vector<uint64_t> addrs(100000);
    uint64_t base = 0x10000000;
    for (auto &a : addrs) {
        if (rng.below(8) == 0)
            base = 0x10000000 + (rng.below(16) << 26);
        a = base + (rng.below(1 << 12) << 6);
    }
    in.push_back({"bytesort_planes",
                  core::bytesortForward(addrs.data(), addrs.size())});
    in.push_back({"one_byte", {0x42}});
    // Exactly one default-size block of text-like bytes.
    std::vector<uint8_t> mib = rngBytes(26, size_t(1) << 20, 15);
    for (auto &b : mib)
        b = static_cast<uint8_t>(b + 'a');
    in.push_back({"one_mib", std::move(mib)});
    return in;
}

/** CRC-32 and size of one compressed pinned input. */
struct Pin
{
    uint32_t crc;
    size_t size;
};

/** compressAll(@p codec) of each pinned input must match @p pins. */
void
expectPinned(const char *codec_name, const std::vector<Pin> &pins)
{
    auto inputs = pinnedInputs();
    ASSERT_EQ(inputs.size(), pins.size());
    const comp::Codec &codec = comp::codecByName(codec_name);
    for (size_t i = 0; i < inputs.size(); ++i) {
        const auto &d = inputs[i].data;
        auto c = comp::compressAll(codec, d.data(), d.size());
        EXPECT_EQ(util::crc32(c.data(), c.size()), pins[i].crc)
            << codec_name << " " << inputs[i].name;
        EXPECT_EQ(c.size(), pins[i].size)
            << codec_name << " " << inputs[i].name;
        EXPECT_EQ(comp::decompressAll(codec, c.data(), c.size()), d)
            << codec_name << " " << inputs[i].name;
    }
}

TEST(Bwc, EncoderOutputBytesArePinned)
{
    // Recorded from the textbook SA-IS encoder with the MTF, RLE and
    // bit-at-a-time writer passes: any kernel rewrite must emit the
    // same bytes, so containers stay identical across versions.
    expectPinned("bwc", {
                            {0xDCDFC1BEu, 30891},  // alphabet2
                            {0xEC53E54Au, 53583},  // alphabet4
                            {0x2EAC04F9u, 200259}, // alphabet256
                            {0x68DD7E45u, 177},    // constant
                            {0x001C5687u, 179},    // two_run
                            {0xD8E5826Bu, 210051}, // bytesort_planes
                            {0x1673F5EAu, 169},    // one_byte
                            {0x86C8F8FCu, 629143}, // one_mib
                        });
}

TEST(Lzh, EncoderOutputBytesArePinned)
{
    // LZH shares the Huffman coder and the bit writer.
    expectPinned("lzh", {
                            {0xE2AD0B67u, 32277},  // alphabet2
                            {0x523C43F1u, 59274},  // alphabet4
                            {0xF3026D89u, 200284}, // alphabet256
                            {0xBB3B53BAu, 1363},   // constant
                            {0x8B7877E0u, 1364},   // two_run
                            {0x4925C983u, 199175}, // bytesort_planes
                            {0x27F081E6u, 197},    // one_byte
                            {0x95CEAB63u, 639398}, // one_mib
                        });
}

TEST(Bwc, DetectsCorruption)
{
    auto data = makeData(1, 50000, 4);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    // Flip a bit in the payload (past the frame header and CRC field).
    compressed[compressed.size() / 2] ^= 0x10;
    EXPECT_THROW(comp::decompressAll(comp::codecByName("bwc"),
                                     compressed.data(), compressed.size()),
                 util::Error);
}

TEST(Lzh, DetectsCorruption)
{
    auto data = makeData(3, 50000, 5);
    auto compressed = comp::compressAll(comp::codecByName("lzh"),
                                        data.data(), data.size());
    compressed[compressed.size() / 2] ^= 0x10;
    EXPECT_THROW(comp::decompressAll(comp::codecByName("lzh"),
                                     compressed.data(), compressed.size()),
                 util::Error);
}

TEST(Lzh, FindsLongMatches)
{
    // Two copies of the same 32 KiB random block: the second copy
    // should almost disappear.
    auto half = makeData(0, 32768, 6);
    std::vector<uint8_t> data(half);
    data.insert(data.end(), half.begin(), half.end());
    auto compressed = comp::compressAll(comp::codecByName("lzh"),
                                        data.data(), data.size());
    EXPECT_LT(compressed.size(), half.size() * 11 / 10 + 1024);
    auto back = comp::decompressAll(comp::codecByName("lzh"),
                                    compressed.data(), compressed.size());
    EXPECT_EQ(back, data);
}

TEST(Lzh, OverlappingMatchRoundTrip)
{
    // RLE-style overlap: "aaaa..." encodes as (dist 1, long length).
    std::vector<uint8_t> data(10000, 'a');
    auto compressed = comp::compressAll(comp::codecByName("lzh"),
                                        data.data(), data.size());
    EXPECT_LT(compressed.size(), 600u);
    auto back = comp::decompressAll(comp::codecByName("lzh"),
                                    compressed.data(), compressed.size());
    EXPECT_EQ(back, data);
}

TEST(Stream, MultiBlockFraming)
{
    auto data = makeData(1, 300000, 7);
    // Small blocks force multiple frames.
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size(), 4096);
    auto back = comp::decompressAll(comp::codecByName("bwc"),
                                    compressed.data(), compressed.size());
    EXPECT_EQ(back, data);
}

TEST(Stream, TerminatorAllowsEmbedding)
{
    auto data = makeData(1, 10000, 8);
    std::vector<uint8_t> container;
    util::VectorSink sink(container);
    comp::StreamCompressor sc(comp::codecByName("store"), sink, 4096);
    sc.write(data.data(), data.size());
    sc.finish();
    // Trailing garbage after the terminator must not be consumed.
    container.push_back(0xAA);
    container.push_back(0xBB);

    util::MemorySource src(container);
    comp::StreamDecompressor sd(comp::codecByName("store"), src);
    std::vector<uint8_t> back(data.size() + 10);
    size_t got = sd.read(back.data(), back.size());
    EXPECT_EQ(got, data.size());
    back.resize(got);
    EXPECT_EQ(back, data);
    EXPECT_EQ(src.remaining(), 2u);
}

TEST(Stream, RawByteCountTracked)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    comp::StreamCompressor sc(comp::codecByName("store"), sink);
    auto data = makeData(1, 12345, 9);
    sc.write(data.data(), data.size());
    sc.finish();
    EXPECT_EQ(sc.rawBytes(), 12345u);
}

TEST(Stream, ByteAtATimeReads)
{
    auto data = makeData(3, 5000, 10);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size(), 1024);
    util::MemorySource src(compressed);
    comp::StreamDecompressor sd(comp::codecByName("bwc"), src);
    for (size_t i = 0; i < data.size(); ++i) {
        uint8_t b;
        ASSERT_EQ(sd.read(&b, 1), 1u);
        ASSERT_EQ(b, data[i]) << "at " << i;
    }
    uint8_t b;
    EXPECT_EQ(sd.read(&b, 1), 0u);
}

TEST(Stream, TruncatedStreamThrows)
{
    auto data = makeData(1, 50000, 11);
    auto compressed = comp::compressAll(comp::codecByName("bwc"),
                                        data.data(), data.size());
    compressed.resize(compressed.size() / 2);
    EXPECT_THROW(comp::decompressAll(comp::codecByName("bwc"),
                                     compressed.data(), compressed.size()),
                 util::Error);
}

} // namespace
} // namespace atc

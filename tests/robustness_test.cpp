/**
 * @file
 * Failure-injection and robustness properties: corrupted containers
 * must fail loudly (throw util::Error), never crash, hang, or return
 * silently wrong data past the integrity checks. Also covers the
 * write-back tagging extension and the delta transform end to end.
 */

#include <gtest/gtest.h>

#include "atc/atc.hpp"
#include "atc/bytesort.hpp"
#include "cache/filter.hpp"
#include "compress/bwc.hpp"
#include "compress/codec.hpp"
#include "compress/huffman.hpp"
#include "compress/rle.hpp"
#include "compress/stream.hpp"
#include "util/bitio.hpp"
#include "trace/suite.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

core::MemoryStore
makeContainer(core::Mode mode, size_t n, uint64_t seed)
{
    core::MemoryStore store;
    core::AtcOptions opt;
    opt.mode = mode;
    opt.lossy.interval_len = n / 8 + 1;
    opt.pipeline.buffer_addrs = n / 16 + 1;
    opt.pipeline.codec_block = 16 * 1024;
    core::AtcWriter w(store, opt);
    util::Rng rng(seed);
    for (size_t i = 0; i < n; ++i)
        w.code(rng.next() >> 8);
    w.close();
    return store;
}

/** Copy a store with one byte of one blob flipped. */
core::MemoryStore
corruptCopy(const core::MemoryStore &src, bool corrupt_info, size_t pos,
            uint8_t mask)
{
    core::MemoryStore out;
    {
        auto sink = out.createInfo();
        std::vector<uint8_t> info = src.infoBytes();
        if (corrupt_info && pos < info.size())
            info[pos] ^= mask;
        sink->write(info.data(), info.size());
    }
    for (size_t id = 0; id < src.chunkCount(); ++id) {
        auto sink = out.createChunk(static_cast<uint32_t>(id));
        std::vector<uint8_t> chunk =
            src.chunkBytes(static_cast<uint32_t>(id));
        if (!corrupt_info && pos < chunk.size())
            chunk[pos] ^= mask;
        sink->write(chunk.data(), chunk.size());
    }
    return out;
}

/** Fully drain a container; count decoded values. */
size_t
drain(core::MemoryStore &store)
{
    core::AtcReader reader(store);
    uint64_t v;
    size_t count = 0;
    while (reader.decode(&v))
        ++count;
    return count;
}

class CorruptionSweep : public testing::TestWithParam<int>
{
};

TEST_P(CorruptionSweep, ChunkBitFlipsNeverSilentlyAccepted)
{
    // Flip one byte at many positions of the (lossless) chunk: every
    // outcome must be either a throw or — never — a silent wrong-length
    // or wrong-content success. The chunk CRC makes corruption loud.
    auto base = makeContainer(core::Mode::Lossless, 3000, GetParam());
    size_t chunk_size = base.chunkBytes(0).size();
    int threw = 0, survived = 0;
    for (size_t pos = 0; pos < chunk_size;
         pos += std::max<size_t>(chunk_size / 40, 1)) {
        auto bad = corruptCopy(base, false, pos, 0x20);
        try {
            size_t n = drain(bad);
            // Tolerable only if the corruption hit dead framing space
            // AND content is identical; verify by comparing streams.
            ++survived;
            core::AtcReader a(base), b(bad);
            uint64_t va, vb;
            for (size_t i = 0; i < n; ++i) {
                ASSERT_TRUE(a.decode(&va));
                ASSERT_TRUE(b.decode(&vb));
                ASSERT_EQ(va, vb) << "silent corruption at byte " << pos;
            }
        } catch (const util::Error &) {
            ++threw;
        }
    }
    // The vast majority of flips must be detected.
    EXPECT_GT(threw, survived);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweep, testing::Values(1, 2, 3));

TEST(Robustness, InfoBitFlipsThrowOrPreserveContent)
{
    auto base = makeContainer(core::Mode::Lossy, 4000, 7);
    size_t info_size = base.infoBytes().size();
    size_t expect = drain(base);
    for (size_t pos = 0; pos < info_size; ++pos) {
        auto bad = corruptCopy(base, true, pos, 0x01);
        try {
            size_t n = drain(bad);
            // INFO integrity is protected by the codec CRC except the
            // tiny uncompressed preamble; a surviving flip must not
            // change the value count.
            EXPECT_EQ(n, expect) << "at byte " << pos;
        } catch (const util::Error &) {
            // expected for most positions
        }
    }
}

TEST(Robustness, TruncatedChunkThrows)
{
    auto base = makeContainer(core::Mode::Lossless, 5000, 9);
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(base.infoBytes().data(), base.infoBytes().size());
        auto chunk = base.chunkBytes(0);
        chunk.resize(chunk.size() / 3);
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    EXPECT_THROW(drain(bad), util::Error);
}

TEST(Robustness, MissingChunkFileThrows)
{
    auto base = makeContainer(core::Mode::Lossy, 4000, 11);
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(base.infoBytes().data(), base.infoBytes().size());
        // copy no chunks
    }
    EXPECT_THROW(drain(bad), util::Error);
}

TEST(Robustness, OversizeBufferLengthIsAnErrorStatus)
{
    // Rewrite the first transform buffer's varint(n) of a "store"-codec
    // container to an absurd length, keeping the raw stream size (and
    // so the frame index and INFO cross-checks) intact: the decoders
    // must reject it as corrupt instead of trying to allocate 8n bytes.
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.codec = "store";
    opt.pipeline.buffer_addrs = 1000;
    opt.pipeline.codec_block = 4096;
    std::vector<uint64_t> trace(5000);
    util::Rng rng(12);
    for (uint64_t &a : trace)
        a = rng.next() >> 8;
    core::MemoryStore base;
    {
        core::AtcWriter w(base, opt);
        w.write(trace.data(), trace.size());
        w.close();
    }
    std::vector<uint8_t> raw;
    {
        util::VectorSink sink(raw);
        core::TransformEncoder enc(opt.pipeline.transform,
                                   opt.pipeline.buffer_addrs, sink);
        enc.write(trace.data(), trace.size());
        enc.finish();
    }
    const size_t old_len = util::varintLen(opt.pipeline.buffer_addrs);

    for (uint64_t n : {uint64_t(1) << 40, uint64_t(1) << 61}) {
        std::vector<uint8_t> bad_raw;
        util::VectorSink raw_sink(bad_raw);
        util::writeVarint(raw_sink, n);
        // The longer varint overwrites the start of the planes.
        ASSERT_GT(bad_raw.size(), old_len);
        bad_raw.insert(bad_raw.end(), raw.begin() + bad_raw.size(),
                       raw.end());
        ASSERT_EQ(bad_raw.size(), raw.size());

        core::MemoryStore bad;
        {
            auto sink = bad.createInfo();
            sink->write(base.infoBytes().data(), base.infoBytes().size());
        }
        {
            auto sink = bad.createChunk(0);
            comp::ConfiguredCodec cc = comp::makeCodec("store");
            comp::StreamCompressor frames(*cc.codec, *sink,
                                          opt.pipeline.codec_block,
                                          comp::FrameFormat::Seekable);
            frames.write(bad_raw.data(), bad_raw.size());
            frames.finish();
            util::writeLE<uint32_t>(*sink, frames.crc());
        }

        auto reader = core::AtcReader::open(bad);
        ASSERT_TRUE(reader.ok()) << reader.status().message();
        uint64_t buf[16];
        auto got = reader.value()->tryRead(buf, 16);
        EXPECT_FALSE(got.ok()) << "n = " << n;

        auto cursor = reader.value()->cursor();
        EXPECT_FALSE(cursor->seek(5).ok()) << "n = " << n;
        std::vector<uint64_t> out;
        EXPECT_FALSE(cursor->readRange(0, 10, out).ok()) << "n = " << n;
    }
}

/**
 * A hand-built BWC block: @p digits RUNB symbols then EOB, i.e. a zero
 * run of about 2^(digits+1) bytes declared for a small block.
 */
std::vector<uint8_t>
runOverflowBlock(int digits)
{
    std::vector<uint8_t> block(4, 0); // CRC, never reached
    util::VectorSink sink(block);
    util::writeVarint(sink, 1); // primary
    std::vector<uint8_t> lengths(comp::kRleAlphabet, 0);
    lengths[comp::kRunB] = 1;
    lengths[comp::kEob] = 1;
    comp::HuffmanEncoder enc(lengths);
    util::BitWriter bw(sink);
    enc.writeTable(bw);
    for (int i = 0; i < digits; ++i)
        enc.writeSymbol(bw, comp::kRunB);
    enc.writeSymbol(bw, comp::kEob);
    bw.alignAndFlush();
    return block;
}

/** Writes a prepared payload for its first block, BWC for the rest. */
class FirstBlockCodec : public comp::Codec
{
  public:
    explicit FirstBlockCodec(std::vector<uint8_t> first)
        : first_(std::move(first))
    {}
    std::string name() const override { return "bwc"; }
    void
    compressBlock(const uint8_t *data, size_t n,
                  util::ByteSink &out) const override
    {
        if (!used_) {
            used_ = true;
            out.write(first_.data(), first_.size());
            return;
        }
        bwc_.compressBlock(data, n, out);
    }
    void
    decompressBlock(util::ByteSource &in, size_t raw_size,
                    std::vector<uint8_t> &out) const override
    {
        bwc_.decompressBlock(in, raw_size, out);
    }

  private:
    std::vector<uint8_t> first_;
    mutable bool used_ = false;
    comp::BwcCodec bwc_;
};

TEST(Robustness, BwcRunOverflowIsAnErrorStatus)
{
    // A run past the block must be a util::Error, not a
    // std::bad_alloc / std::length_error escaping every Status.
    comp::BwcCodec bwc;
    for (int digits : {60, 70}) {
        auto block = runOverflowBlock(digits);
        util::MemorySource src(block);
        std::vector<uint8_t> out;
        EXPECT_THROW(bwc.decompressBlock(src, 4096, out), util::Error)
            << digits << " digits";
    }

    // The same block as the first frame of a bwc container, the frame
    // index, INFO and CRC trailer all consistent.
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.codec = "bwc";
    opt.pipeline.buffer_addrs = 1000;
    opt.pipeline.codec_block = 4096;
    std::vector<uint64_t> trace(5000);
    util::Rng rng(14);
    for (uint64_t &a : trace)
        a = rng.next() >> 8;
    core::MemoryStore base;
    {
        core::AtcWriter w(base, opt);
        w.write(trace.data(), trace.size());
        w.close();
    }
    std::vector<uint8_t> raw;
    {
        util::VectorSink sink(raw);
        core::TransformEncoder enc(opt.pipeline.transform,
                                   opt.pipeline.buffer_addrs, sink);
        enc.write(trace.data(), trace.size());
        enc.finish();
    }
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(base.infoBytes().data(), base.infoBytes().size());
    }
    {
        auto sink = bad.createChunk(0);
        FirstBlockCodec codec(runOverflowBlock(60));
        comp::StreamCompressor frames(codec, *sink, opt.pipeline.codec_block,
                                      comp::FrameFormat::Seekable);
        frames.write(raw.data(), raw.size());
        frames.finish();
        util::writeLE<uint32_t>(*sink, frames.crc());
    }

    auto reader = core::AtcReader::open(bad);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    uint64_t buf[16];
    EXPECT_FALSE(reader.value()->tryRead(buf, 16).ok());
    auto cursor = reader.value()->cursor();
    EXPECT_FALSE(cursor->seek(5).ok());
    std::vector<uint64_t> out;
    EXPECT_FALSE(cursor->readRange(0, 10, out).ok());
}

TEST(Robustness, MutatedBwcFramesDecodeExactlyOrRaise)
{
    // Trace-shaped input (bytesort planes of a filtered suite trace)
    // through every decode kernel: each byte-mutated frame decodes to
    // the original or raises util::Error; nothing else may escape.
    auto trace = trace::collectFilteredTrace(
        trace::benchmarkByName("429.mcf"), 8000, 3);
    auto planes = core::bytesortForward(trace.data(), trace.size());
    comp::BwcCodec bwc;
    std::vector<uint8_t> frame;
    {
        util::VectorSink sink(frame);
        bwc.compressBlock(planes.data(), planes.size(), sink);
    }
    util::Rng rng(2024);
    int rejected = 0;
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<uint8_t> bad = frame;
        int flips = 1 + static_cast<int>(rng.below(3));
        for (int k = 0; k < flips; ++k)
            bad[rng.below(bad.size())] ^=
                static_cast<uint8_t>(1 + rng.below(255));
        std::vector<uint8_t> out;
        try {
            comp::decodeSeekableFrame(bwc, bad.data(), bad.size(),
                                      planes.size(), out);
            ASSERT_EQ(out, planes) << "trial " << trial;
        } catch (const util::Error &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 400);
}

TEST(Robustness, InfoBufferSizeOutOfRangeIsAnErrorStatus)
{
    // B = 0 would divide the seek geometry by zero at open; B > 2^32
    // cannot be bytesorted and would let 8 * B wrap.
    auto base = makeContainer(core::Mode::Lossless, 4000, 13);
    for (uint64_t b : {uint64_t(0), (uint64_t(1) << 32) + 1}) {
        core::MemoryStore bad;
        core::LosslessParams pipeline;
        pipeline.codec = "store";
        pipeline.buffer_addrs = static_cast<size_t>(b);
        core::writeContainerInfo(bad, comp::makeCodec("store"),
                                 core::kContainerVersion,
                                 core::Mode::Lossless, pipeline, 4000,
                                 nullptr, 1, nullptr);
        auto sink = bad.createChunk(0);
        sink->write(base.chunkBytes(0).data(), base.chunkBytes(0).size());
        auto reader = core::AtcReader::open(bad);
        ASSERT_FALSE(reader.ok()) << "B = " << b;
        EXPECT_NE(reader.status().message().find("buffer size"),
                  std::string::npos)
            << reader.status().message();
    }
}

TEST(DeltaTransform, RoundTripStreaming)
{
    util::Rng rng(3);
    for (size_t len : {size_t(0), size_t(1), size_t(1000), size_t(4097)}) {
        std::vector<uint64_t> addrs(len);
        uint64_t base = 0x4000000;
        for (auto &a : addrs) {
            base += rng.below(256);
            a = base;
        }
        std::vector<uint8_t> out;
        util::VectorSink sink(out);
        core::TransformEncoder enc(core::Transform::Delta, 512, sink);
        for (uint64_t a : addrs)
            enc.code(a);
        enc.finish();
        util::MemorySource src(out);
        core::TransformDecoder dec(core::Transform::Delta, src, 512);
        std::vector<uint64_t> back;
        uint64_t v;
        while (dec.decode(&v))
            back.push_back(v);
        EXPECT_EQ(back, addrs) << len;
    }
}

TEST(DeltaTransform, BeatsRawOnSequentialTrace)
{
    std::vector<uint64_t> addrs(100000);
    for (size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = 0x123456000 + i;
    auto bpa = [&](core::Transform t) {
        util::CountingSink sink;
        core::LosslessParams p;
        p.transform = t;
        p.buffer_addrs = 10000;
        core::LosslessWriter w(p, sink);
        for (uint64_t a : addrs)
            w.code(a);
        w.finish();
        return 8.0 * sink.count() / addrs.size();
    };
    EXPECT_LT(bpa(core::Transform::Delta), bpa(core::Transform::None));
    EXPECT_LT(bpa(core::Transform::Delta), 0.2);
}

TEST(DeltaTransform, ContainerRoundTrip)
{
    core::MemoryStore store;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.transform = core::Transform::Delta;
    opt.pipeline.buffer_addrs = 700;
    std::vector<uint64_t> addrs;
    util::Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        addrs.push_back(rng.next() >> 20);
    {
        core::AtcWriter w(store, opt);
        for (uint64_t a : addrs)
            w.code(a);
        w.close();
    }
    core::AtcReader r(store);
    std::vector<uint64_t> back;
    uint64_t v;
    while (r.decode(&v))
        back.push_back(v);
    EXPECT_EQ(back, addrs);
}

TEST(WriteBackFilter, WritesProduceTaggedRecords)
{
    // Tiny direct-mapped D-cache: write block 0, then force its
    // eviction with a conflicting block; a tagged write-back appears.
    cache::CacheConfig l1{2, 1, 64};
    cache::CacheFilter f(l1);
    std::vector<uint64_t> out;
    f.accessTagged(0 * 64, false, true, out);   // write miss: demand rec
    f.accessTagged(2 * 64, false, false, out);  // conflicting read
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0u);                         // demand miss, block 0
    EXPECT_EQ(out[1], 2u);                         // demand miss, block 2
    EXPECT_EQ(out[2], 0u | cache::kWriteBackTag);  // block 0 written back
}

TEST(WriteBackFilter, ReadsNeverProduceWriteBacks)
{
    cache::CacheConfig l1{2, 1, 64};
    cache::CacheFilter f(l1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 100; ++i)
        f.accessTagged(static_cast<uint64_t>(i) * 64, false, false, out);
    for (uint64_t rec : out)
        EXPECT_EQ(rec & cache::kWriteBackTag, 0u);
}

TEST(WriteBackFilter, InstructionFetchesNeverDirty)
{
    cache::CacheConfig l1{2, 1, 64};
    cache::CacheFilter f(l1);
    std::vector<uint64_t> out;
    // is_write is ignored for instruction fetches.
    f.accessTagged(0, true, true, out);
    f.accessTagged(2 * 64, true, false, out);
    f.accessTagged(4 * 64, true, false, out);
    for (uint64_t rec : out)
        EXPECT_EQ(rec & cache::kWriteBackTag, 0u);
}

TEST(WriteBackFilter, TaggedStreamSurvivesAtcLossless)
{
    // End-to-end: tagged records (with their MSB tag bits) round-trip
    // through the compressor — the paper's §2 use case.
    cache::CacheFilter f;
    util::Rng rng(6);
    std::vector<uint64_t> records;
    for (int i = 0; i < 300000 && records.size() < 20000; ++i) {
        uint64_t addr = 0x1000000 + rng.below(1 << 21);
        f.accessTagged(addr, false, rng.below(2) == 0, records);
    }
    ASSERT_GT(records.size(), 1000u);
    bool any_wb = false;
    for (uint64_t rec : records)
        any_wb |= (rec & cache::kWriteBackTag) != 0;
    EXPECT_TRUE(any_wb);

    core::MemoryStore store;
    core::AtcOptions opt;
    opt.mode = core::Mode::Lossless;
    opt.pipeline.buffer_addrs = 4096;
    {
        core::AtcWriter w(store, opt);
        for (uint64_t rec : records)
            w.code(rec);
        w.close();
    }
    core::AtcReader r(store);
    std::vector<uint64_t> back;
    uint64_t v;
    while (r.decode(&v))
        back.push_back(v);
    EXPECT_EQ(back, records);
}

} // namespace
} // namespace atc

/**
 * @file
 * Tests of the batch-first public API: batch/single-value equivalence
 * (identical container bytes and identical decoded streams), the codec
 * registry and spec grammar at the container level, Status-returning
 * open/read paths on damaged containers, suffix auto-detection, and
 * composable trace pipelines.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "atc/atc.hpp"
#include "atc/info.hpp"
#include "cache/filter.hpp"
#include "parallel/parallel_atc.hpp"
#include "tcgen/tcgen.hpp"
#include "trace/pipeline.hpp"
#include "trace/suite.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

namespace fs = std::filesystem;

std::vector<uint64_t>
randomTrace(size_t n, uint64_t seed, int shift = 6)
{
    util::Rng rng(seed);
    std::vector<uint64_t> trace(n);
    for (auto &v : trace)
        v = rng.next() >> shift;
    return trace;
}

core::AtcOptions
smallOptions(core::Mode mode)
{
    core::AtcOptions opt;
    opt.mode = mode;
    opt.pipeline.buffer_addrs = 777;
    opt.pipeline.codec_block = 32 * 1024;
    opt.lossy.interval_len = 500;
    return opt;
}

void
writeSingle(core::ChunkStore &store, const core::AtcOptions &opt,
            const std::vector<uint64_t> &trace)
{
    core::AtcWriter w(store, opt);
    for (uint64_t a : trace)
        w.code(a);
    w.close();
}

void
writeBatched(core::ChunkStore &store, const core::AtcOptions &opt,
             const std::vector<uint64_t> &trace, size_t batch)
{
    core::AtcWriter w(store, opt);
    for (size_t i = 0; i < trace.size(); i += batch) {
        size_t take = std::min(batch, trace.size() - i);
        w.write(trace.data() + i, take);
    }
    w.close();
}

class BatchEquivalence : public testing::TestWithParam<core::Mode>
{
};

TEST_P(BatchEquivalence, ContainersAreByteIdentical)
{
    auto trace = randomTrace(10123, 42);
    auto opt = smallOptions(GetParam());

    core::MemoryStore single;
    writeSingle(single, opt, trace);

    for (size_t batch : {size_t(1), size_t(7), size_t(1000),
                         trace.size()}) {
        core::MemoryStore batched;
        writeBatched(batched, opt, trace, batch);
        ASSERT_EQ(single.chunkCount(), batched.chunkCount()) << batch;
        EXPECT_EQ(single.infoBytes(), batched.infoBytes()) << batch;
        for (size_t id = 0; id < single.chunkCount(); ++id) {
            EXPECT_EQ(single.chunkBytes(static_cast<uint32_t>(id)),
                      batched.chunkBytes(static_cast<uint32_t>(id)))
                << "chunk " << id << " batch " << batch;
        }
    }
}

TEST_P(BatchEquivalence, BatchAndSingleDecodeAgree)
{
    auto trace = randomTrace(9137, 7);
    auto opt = smallOptions(GetParam());
    core::MemoryStore store;
    writeBatched(store, opt, trace, 512);

    std::vector<uint64_t> single;
    {
        core::AtcReader r(store);
        uint64_t v;
        while (r.decode(&v))
            single.push_back(v);
    }
    for (size_t batch : {size_t(1), size_t(13), size_t(4096)}) {
        core::AtcReader r(store);
        std::vector<uint64_t> out;
        std::vector<uint64_t> buf(batch);
        size_t got;
        while ((got = r.read(buf.data(), buf.size())) != 0)
            out.insert(out.end(), buf.begin(), buf.begin() + got);
        EXPECT_EQ(out, single) << batch;
    }
    EXPECT_EQ(single.size(), trace.size());
    if (GetParam() == core::Mode::Lossless)
        EXPECT_EQ(single, trace);
}

INSTANTIATE_TEST_SUITE_P(Modes, BatchEquivalence,
                         testing::Values(core::Mode::Lossless,
                                         core::Mode::Lossy));

TEST(CodecSpecContainer, ParameterizedSpecRoundTripsThroughInfo)
{
    auto trace = randomTrace(4000, 3);
    core::MemoryStore store;
    auto opt = smallOptions(core::Mode::Lossless);
    opt.pipeline.codec = "bwc:block=16k";
    writeBatched(store, opt, trace, 900);

    core::AtcReader reader(store);
    EXPECT_EQ(reader.codecSpec(), "bwc:block=16k");
    std::vector<uint64_t> buf(trace.size());
    size_t got = reader.read(buf.data(), buf.size());
    EXPECT_EQ(got, trace.size());
    buf.resize(got);
    EXPECT_EQ(buf, trace);
}

TEST(CodecSpecContainer, BlockParamChangesFraming)
{
    auto trace = randomTrace(20000, 9);
    core::MemoryStore coarse, fine;
    auto opt = smallOptions(core::Mode::Lossless);
    opt.pipeline.codec = "store";
    writeBatched(coarse, opt, trace, 4096);
    opt.pipeline.codec = "store:block=1k";
    writeBatched(fine, opt, trace, 4096);
    // Smaller blocks mean more frame headers: strictly more bytes.
    EXPECT_GT(fine.chunkBytes(0).size(), coarse.chunkBytes(0).size());
}

TEST(CodecSpecContainer, MalformedSpecRejectedAtOpen)
{
    core::MemoryStore store;
    auto opt = smallOptions(core::Mode::Lossless);
    for (const char *bad : {"", "bwc:block", "bwc:block=", "bwc:=1",
                            "bwc:block=9q", "bwc:block=1,block=2",
                            "no/such", "bzip2"}) {
        opt.pipeline.codec = bad;
        auto w = core::AtcWriter::open(store, opt);
        EXPECT_FALSE(w.ok()) << "spec '" << bad << "'";
        EXPECT_FALSE(w.status().message().empty());
    }
}

TEST(CodecSpecContainer, OversizedCodecBlockRejectedAtOpen)
{
    // Readers reject frames above comp::kMaxFrameRawSize, so both
    // writers refuse a larger codec block when they open, in either
    // mode and whether it comes from the spec or the pipeline: a Status
    // naming the limit, before any buffer is reserved or the directory
    // is created.
    const std::string dir = testing::TempDir() + "/atc_oversized_block";
    fs::remove_all(dir);
    struct Case
    {
        const char *spec;
        uint64_t codec_block; // 0 keeps smallOptions' block
    };
    const Case cases[] = {{"bwc", 1'000'000'000'000},
                          {"bwc", comp::kMaxFrameRawSize + 1},
                          {"bwc:block=900g", 0},
                          {"lzh:block=5g", 0}};
    for (core::Mode mode : {core::Mode::Lossless, core::Mode::Lossy}) {
        for (const Case &c : cases) {
            auto opt = smallOptions(mode);
            opt.pipeline.codec = c.spec;
            if (c.codec_block != 0)
                opt.pipeline.codec_block = c.codec_block;
            auto expectRejected = [&](const util::Status &st) {
                ASSERT_FALSE(st.ok()) << c.spec;
                EXPECT_NE(st.message().find(
                              "exceeds the frame limit of 1073741824 bytes"),
                          std::string::npos)
                    << st.message();
            };
            core::MemoryStore store;
            expectRejected(core::AtcWriter::open(store, opt).status());
            expectRejected(core::AtcWriter::open(dir, opt).status());
            expectRejected(
                parallel::ParallelAtcWriter::open(store, opt, {}).status());
            expectRejected(
                parallel::ParallelAtcWriter::open(dir, opt, {}).status());
            EXPECT_FALSE(fs::exists(dir));
        }
    }
}

TEST(CodecSpecContainer, CodecBlockAtTheFrameLimitIsAccepted)
{
    core::LosslessParams at_limit;
    at_limit.codec_block = comp::kMaxFrameRawSize;
    EXPECT_EQ(core::writerCodec(at_limit).blockOr(at_limit.codec_block),
              comp::kMaxFrameRawSize);
}

TEST(StatusOpen, MissingDirectoryReportsError)
{
    auto r = core::AtcReader::open("/nonexistent/atc_dir");
    ASSERT_FALSE(r.ok());
    EXPECT_FALSE(r.status().message().empty());
}

TEST(StatusOpen, EmptyDirectoryReportsError)
{
    std::string dir = testing::TempDir() + "/atc_status_empty";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto r = core::AtcReader::open(dir);
    ASSERT_FALSE(r.ok());
    fs::remove_all(dir);
}

TEST(StatusOpen, TruncatedInfoReportsError)
{
    core::MemoryStore good;
    writeBatched(good, smallOptions(core::Mode::Lossless),
                 randomTrace(3000, 5), 512);

    const auto &info = good.infoBytes();
    for (size_t keep : {size_t(0), size_t(3), size_t(5),
                        info.size() / 2, info.size() - 1}) {
        core::MemoryStore bad;
        {
            auto sink = bad.createInfo();
            sink->write(info.data(), std::min(keep, info.size()));
        }
        auto r = core::AtcReader::open(bad);
        EXPECT_FALSE(r.ok()) << "kept " << keep << " bytes";
    }
}

TEST(StatusOpen, CorruptMagicReportsError)
{
    core::MemoryStore good;
    writeBatched(good, smallOptions(core::Mode::Lossy),
                 randomTrace(3000, 6), 512);
    auto info = good.infoBytes();
    info[1] ^= 0xFF;
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(info.data(), info.size());
    }
    auto r = core::AtcReader::open(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("not an ATC container"),
              std::string::npos);
}

TEST(StatusOpen, UnknownCodecInInfoReportsError)
{
    core::MemoryStore good;
    writeBatched(good, smallOptions(core::Mode::Lossless),
                 randomTrace(1000, 8), 512);
    // Patch the recorded spec "bwc" (length-prefixed at offset 6) to an
    // unregistered name of equal length.
    auto info = good.infoBytes();
    ASSERT_EQ(info[6], 3u);
    info[7] = 'z';
    info[8] = 'z';
    info[9] = 'z';
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(info.data(), info.size());
    }
    auto r = core::AtcReader::open(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unknown codec"),
              std::string::npos);
}

TEST(StatusRead, MissingChunkSurfacesAsStatus)
{
    core::MemoryStore good;
    writeBatched(good, smallOptions(core::Mode::Lossy),
                 randomTrace(4000, 11), 512);
    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(good.infoBytes().data(), good.infoBytes().size());
        // copy no chunks
    }
    // The index scan rejects the missing chunk at open() — as a
    // Status, never an exception; a v1/v2 container would surface it
    // on the first tryRead instead.
    auto r = core::AtcReader::open(bad);
    if (r.ok()) {
        uint64_t buf[256];
        auto got = r.value()->tryRead(buf, 256);
        ASSERT_FALSE(got.ok());
    } else {
        EXPECT_NE(r.status().message().find("chunk"), std::string::npos)
            << r.status().message();
    }
}

TEST(StatusWrite, UnwritableDirectoryReportsError)
{
    auto w = core::AtcWriter::open("/proc/atc_cannot_write_here",
                                   smallOptions(core::Mode::Lossless));
    EXPECT_FALSE(w.ok());
}

TEST(SuffixDetection, NonDefaultCodecOpensWithoutHint)
{
    std::string dir = testing::TempDir() + "/atc_suffix_lzh";
    fs::remove_all(dir);
    auto trace = randomTrace(3000, 13);
    auto opt = smallOptions(core::Mode::Lossless);
    opt.pipeline.codec = "lzh";
    {
        core::AtcWriter w(dir, opt);
        w.write(trace.data(), trace.size());
        w.close();
    }
    EXPECT_TRUE(fs::exists(dir + "/INFO.lzh"));

    core::AtcReader reader(dir); // no suffix passed
    std::vector<uint64_t> out(trace.size());
    EXPECT_EQ(reader.read(out.data(), out.size()), trace.size());
    EXPECT_EQ(out, trace);
    fs::remove_all(dir);
}

TEST(SuffixDetection, ParameterizedSpecStillUsesPlainNameSuffix)
{
    std::string dir = testing::TempDir() + "/atc_suffix_param";
    fs::remove_all(dir);
    auto opt = smallOptions(core::Mode::Lossy);
    opt.pipeline.codec = "bwc:block=32k";
    {
        core::AtcWriter w(dir, opt);
        auto trace = randomTrace(2000, 14);
        w.write(trace.data(), trace.size());
        w.close();
    }
    // The suffix is the codec *name*, not the full spec.
    EXPECT_TRUE(fs::exists(dir + "/INFO.bwc"));
    EXPECT_TRUE(fs::exists(dir + "/1.bwc"));
    core::AtcReader reader(dir);
    EXPECT_EQ(reader.codecSpec(), "bwc:block=32k");
    EXPECT_EQ(reader.count(), 2000u);
    fs::remove_all(dir);
}

TEST(SuffixDetection, TwoContainersDisambiguatedByCodecName)
{
    std::string dir = testing::TempDir() + "/atc_suffix_two";
    fs::remove_all(dir);
    auto trace = randomTrace(1500, 15);
    for (const char *codec : {"bwc", "lzh"}) {
        auto opt = smallOptions(core::Mode::Lossless);
        opt.pipeline.codec = codec;
        core::AtcWriter w(dir, opt);
        w.write(trace.data(), trace.size());
        w.close();
    }
    // Auto-detect refuses to guess between two containers...
    EXPECT_FALSE(core::AtcReader::open(dir).ok());
    // ...but explicit suffixes open both.
    for (const char *suffix : {"bwc", "lzh"}) {
        core::AtcReader reader(dir, suffix);
        std::vector<uint64_t> out(trace.size());
        ASSERT_EQ(reader.read(out.data(), out.size()), trace.size())
            << suffix;
        EXPECT_EQ(out, trace) << suffix;
    }
    fs::remove_all(dir);
}

TEST(Pipeline, GeneratorFilterCompressChain)
{
    const auto &bench = trace::benchmarkByName("429.mcf");

    // Reference: hand-written loop over the same generator and filter.
    std::vector<uint64_t> expect;
    {
        trace::GeneratorPtr gen = bench.makeData(21);
        cache::CacheFilter filter;
        for (size_t i = 0; i < 200000; ++i) {
            if (auto miss = filter.access(gen->next(), false))
                expect.push_back(*miss);
        }
    }

    // Composed: GeneratorSource -> FilterStage -> AtcWriter.
    core::MemoryStore store;
    auto opt = smallOptions(core::Mode::Lossless);
    core::AtcWriter writer(store, opt);
    trace::GeneratorPtr gen = bench.makeData(21);
    trace::GeneratorSource source(*gen, 200000);
    cache::FilterStage stage(writer);
    trace::pump(source, stage);
    stage.close();

    EXPECT_EQ(writer.count(), expect.size());
    core::AtcReader reader(store);
    EXPECT_EQ(trace::collect(reader), expect);
}

TEST(Pipeline, TeeSinkDuplicatesStream)
{
    auto trace = randomTrace(5000, 23);
    std::vector<uint64_t> a, b;
    trace::VectorTraceSink sa(a), sb(b);
    trace::TeeSink tee({&sa, &sb});
    trace::VectorTraceSource src(trace);
    EXPECT_EQ(trace::pump(src, tee), trace.size());
    tee.close();
    EXPECT_EQ(a, trace);
    EXPECT_EQ(b, trace);
}

TEST(Pipeline, TcgenSpeaksPipelineInterfaces)
{
    auto trace = randomTrace(3000, 29, 40);
    tcg::TcgenConfig cfg;
    cfg.log2_lines = 12;

    tcg::TcgenResult compressed;
    {
        util::VectorSink code_sink(compressed.code_bytes);
        util::VectorSink data_sink(compressed.data_bytes);
        tcg::TcgenEncoder enc(cfg, code_sink, data_sink);
        trace::VectorTraceSource src(trace);
        trace::pump(src, enc);
        enc.close();
    }
    {
        util::MemorySource code_src(compressed.code_bytes);
        util::MemorySource data_src(compressed.data_bytes);
        tcg::TcgenDecoder dec(cfg, code_src, data_src);
        EXPECT_EQ(trace::collect(dec), trace);
    }
}

TEST(Pipeline, AtcReaderDrainsAsSource)
{
    auto trace = randomTrace(6000, 31);
    core::MemoryStore store;
    writeBatched(store, smallOptions(core::Mode::Lossless), trace, 999);
    core::AtcReader reader(store);
    EXPECT_EQ(trace::collect(reader), trace);
}

} // namespace
} // namespace atc

/**
 * @file
 * Random-access API tests: AtcIndex open/validation, AtcCursor seek
 * edges (record 0, last record, exact buffer/frame and interval
 * boundaries, seek past end), seek+read parity against a sequential
 * reference at every tested offset, v1/v2 decode-and-skip fallback
 * parity, readRange record-exactness in both modes, a decode-counting
 * codec proving that a v3 readRange decodes only the frames covering
 * the slice (and that opening an index decodes nothing), corrupt-index
 * rejection at open, and N threads sharing one AtcIndex through
 * private cursors (the TSan target). The shared decoded-record cache
 * suite proves results are budget-independent (disabled/tiny/large,
 * and a budget below one unit retains nothing), that repeated seeks
 * and ranges over cache-resident transform buffers run neither a codec
 * decode nor an inverse transform, that cold seek-then-stream and cold
 * ranges decode every covering frame exactly once, that eviction races
 * under a starved budget stay coherent (TSan again), and that a pooled
 * lossy readRange fans covering-chunk decodes onto worker threads
 * while staying record-exact. A lossy readRange restores the streaming
 * position lazily (it decodes only its covering chunks, even after a
 * failure, and a read retried after a failed parked interval resumes
 * in place), and concurrent cold readers of one unit share a single
 * decode at any budget, its failure reaching every one of them.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "atc/atc.hpp"
#include "atc/index.hpp"
#include "compress/codec.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_atc.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/pipeline.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

std::vector<uint64_t>
makeTrace(size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint64_t> trace(n);
    uint64_t base = 0x10000000;
    for (auto &v : trace) {
        base += rng.below(4096);
        v = (rng.below(16) == 0) ? rng.next() >> 20 : base;
    }
    return trace;
}

core::AtcOptions
makeOptions(core::Mode mode, const std::string &codec = "bwc")
{
    core::AtcOptions opt;
    opt.mode = mode;
    // Small buffers and blocks so a modest trace spans many transform
    // buffers and many codec frames — the geometry seek must get right.
    opt.pipeline.buffer_addrs = 777;
    opt.pipeline.codec = codec;
    opt.pipeline.codec_block = 4096;
    opt.lossy.interval_len = 1000;
    opt.lossy.epsilon = 0.5; // force some imitated intervals
    return opt;
}

core::MemoryStore
writeContainer(const std::vector<uint64_t> &trace,
               const core::AtcOptions &opt)
{
    core::MemoryStore store;
    core::AtcWriter writer(store, opt);
    writer.write(trace.data(), trace.size());
    writer.close();
    return store;
}

/** Sequentially decode the whole container — the parity reference. */
std::vector<uint64_t>
reference(core::MemoryStore &store)
{
    core::AtcReader reader(store);
    return trace::collect(reader);
}

// ------------------------------------------------------------- lossless

class LosslessSeek : public testing::TestWithParam<uint8_t>
{
};

TEST_P(LosslessSeek, SeekReadParityAtEveryTestedOffset)
{
    auto trace = makeTrace(10'000, 21);
    auto opt = makeOptions(core::Mode::Lossless);
    opt.container_version = GetParam();
    auto store = writeContainer(trace, opt);
    auto ref = reference(store);
    ASSERT_EQ(ref, trace);

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();
    EXPECT_EQ(cursor->size(), trace.size());
    EXPECT_EQ(index.value()->nativeSeek(), GetParam() >= 3);

    // Edges: first, last, end, exact transform-buffer boundaries
    // (buffer_addrs = 777) and a spread of interior offsets — forward
    // and backward seeks interleaved.
    std::vector<uint64_t> offsets = {0,    1,    776,  777,  778,
                                     1554, 4242, 9998, 9999, 10'000,
                                     3,    7770, 42};
    for (uint64_t off : offsets) {
        auto s = cursor->seek(off);
        ASSERT_TRUE(s.ok()) << off << ": " << s.message();
        EXPECT_EQ(cursor->tell(), off);
        uint64_t buf[257];
        size_t got = cursor->read(buf, 257);
        size_t expect =
            std::min<size_t>(257, trace.size() - static_cast<size_t>(off));
        ASSERT_EQ(got, expect) << off;
        for (size_t i = 0; i < got; ++i)
            ASSERT_EQ(buf[i], ref[static_cast<size_t>(off) + i])
                << "offset " << off << " + " << i;
        EXPECT_EQ(cursor->tell(), off + got);
    }

    // Seeking past the end is an out-of-range Status, not a throw.
    auto bad = cursor->seek(trace.size() + 1);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("out of range"), std::string::npos);

    // Seek to end: clean end-of-trace.
    ASSERT_TRUE(cursor->seek(trace.size()).ok());
    uint64_t v;
    EXPECT_EQ(cursor->read(&v, 1), 0u);

    // Seek back to 0 restores the full sequential path.
    ASSERT_TRUE(cursor->seek(0).ok());
    EXPECT_EQ(trace::collect(*cursor), ref);
}

TEST_P(LosslessSeek, ReadRangeMatchesSequentialSlices)
{
    auto trace = makeTrace(8'000, 22);
    auto opt = makeOptions(core::Mode::Lossless);
    opt.container_version = GetParam();
    auto store = writeContainer(trace, opt);

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();

    ASSERT_TRUE(cursor->seek(5000).ok()); // readRange must not disturb it

    std::vector<uint64_t> out;
    std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {0, 1},      {0, 80},     {776, 778}, {777, 1554},
        {4000, 4080}, {7999, 8000}, {0, 8000},  {3000, 3000}};
    for (auto [b, e] : ranges) {
        auto s = cursor->readRange(b, e, out);
        ASSERT_TRUE(s.ok()) << b << ":" << e << " " << s.message();
        ASSERT_EQ(out.size(), e - b);
        for (size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], trace[static_cast<size_t>(b) + i])
                << "range " << b << ":" << e << " + " << i;
    }

    // Bad ranges are Status errors.
    EXPECT_FALSE(cursor->readRange(10, 5, out).ok());
    EXPECT_FALSE(cursor->readRange(0, 8001, out).ok());
    auto oor = cursor->readRange(8000, 8001, out);
    ASSERT_FALSE(oor.ok());
    EXPECT_NE(oor.message().find("out of range"), std::string::npos);

    // The cursor's own position was untouched throughout.
    EXPECT_EQ(cursor->tell(), 5000u);
    uint64_t v;
    ASSERT_EQ(cursor->read(&v, 1), 1u);
    EXPECT_EQ(v, trace[5000]);
}

INSTANTIATE_TEST_SUITE_P(Versions, LosslessSeek,
                         testing::Values(uint8_t(1), uint8_t(2),
                                         uint8_t(3)));

// --------------------------------------------------------------- lossy

TEST(LossySeek, LandsOnIntervalBoundaryAndReadsFromThere)
{
    auto trace = makeTrace(10'500, 23);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossy));
    auto ref = reference(store); // the *regenerated* (lossy) trace

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    const auto &starts = index.value()->recordStarts();
    ASSERT_GT(starts.size(), 2u); // several intervals
    auto cursor = index.value()->cursor();

    for (uint64_t off : {uint64_t(0), uint64_t(1), uint64_t(999),
                         uint64_t(1000), uint64_t(1001), uint64_t(5500),
                         uint64_t(10'499), uint64_t(10'500)}) {
        auto s = cursor->seek(off);
        ASSERT_TRUE(s.ok()) << off << ": " << s.message();
        // Lossy seek lands on the containing interval boundary at or
        // before the request (interval_len = 1000).
        uint64_t landed = cursor->tell();
        EXPECT_LE(landed, off);
        EXPECT_TRUE(std::find(starts.begin(), starts.end(), landed) !=
                    starts.end())
            << landed;
        if (off < cursor->size())
            EXPECT_EQ(off - landed, off % 1000);
        uint64_t buf[123];
        size_t got = cursor->read(buf, 123);
        size_t expect = std::min<size_t>(
            123, ref.size() - static_cast<size_t>(landed));
        ASSERT_EQ(got, expect) << off;
        for (size_t i = 0; i < got; ++i)
            ASSERT_EQ(buf[i], ref[static_cast<size_t>(landed) + i]) << off;
    }

    auto bad = cursor->seek(10'501);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("out of range"), std::string::npos);
}

TEST(LossySeek, ReadRangeIsRecordExactAndPositionPreserving)
{
    auto trace = makeTrace(9'500, 24);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossy));
    auto ref = reference(store);

    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();
    ASSERT_TRUE(cursor->seek(2500).ok());
    uint64_t mark = cursor->tell(); // interval boundary at 2000
    uint64_t probe[7];
    ASSERT_EQ(cursor->read(probe, 7), 7u); // now mid-interval

    std::vector<uint64_t> out;
    for (auto [b, e] :
         std::vector<std::pair<uint64_t, uint64_t>>{{0, 50},
                                                    {995, 1005},
                                                    {4242, 5777},
                                                    {9499, 9500}}) {
        auto s = cursor->readRange(b, e, out);
        ASSERT_TRUE(s.ok()) << s.message();
        ASSERT_EQ(out.size(), e - b);
        for (size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], ref[static_cast<size_t>(b) + i])
                << "range " << b << ":" << e;
    }

    // Streaming resumes exactly where it was (mid-interval).
    uint64_t v;
    ASSERT_EQ(cursor->read(&v, 1), 1u);
    EXPECT_EQ(v, ref[static_cast<size_t>(mark) + 7]);
}

// --------------------------------------------- decode-counting codec

/** "store" wrapper counting decompressBlock calls process-wide, and
 *  recording which threads ran them (proof of pool fan-out). */
class CountingCodec : public comp::Codec
{
  public:
    std::string name() const override { return "countstore"; }

    void
    compressBlock(const uint8_t *data, size_t n,
                  util::ByteSink &out) const override
    {
        out.write(data, n);
    }

    void
    decompressBlock(util::ByteSource &in, size_t raw_size,
                    std::vector<uint8_t> &out) const override
    {
        ++decodes;
        {
            std::lock_guard<std::mutex> lock(mu);
            threads.insert(std::this_thread::get_id());
        }
        out.resize(raw_size);
        in.readExact(out.data(), out.size());
    }

    static void
    resetThreads()
    {
        std::lock_guard<std::mutex> lock(mu);
        threads.clear();
    }

    /** @return true when any decode ran off the calling thread. */
    static bool
    decodedOffThread()
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const std::thread::id &id : threads)
            if (id != std::this_thread::get_id())
                return true;
        return false;
    }

    static std::atomic<uint64_t> decodes;
    static std::mutex mu;
    static std::set<std::thread::id> threads;
};

std::atomic<uint64_t> CountingCodec::decodes{0};
std::mutex CountingCodec::mu;
std::set<std::thread::id> CountingCodec::threads;

void
registerCountingCodec()
{
    static bool once = [] {
        comp::CodecRegistry::instance().add(
            "countstore", [](const comp::CodecSpec &)
                -> util::StatusOr<std::shared_ptr<const comp::Codec>> {
                return std::shared_ptr<const comp::Codec>(
                    std::make_shared<CountingCodec>());
            });
        return true;
    }();
    (void)once;
}

TEST(RangedDecode, OnePercentSliceDecodesOnlyCoveringFrames)
{
    registerCountingCodec();
    auto trace = makeTrace(100'000, 25);
    auto opt = makeOptions(core::Mode::Lossless, "countstore");
    auto store = writeContainer(trace, opt);

    // Baseline: opening any reader decodes the (tiny, legacy-framed)
    // INFO payload; measure that fixed cost first so the chunk-frame
    // accounting below is exact.
    CountingCodec::decodes = 0;
    { core::ContainerInfo probe = core::readContainerInfo(store); }
    uint64_t info_decodes = CountingCodec::decodes.load();
    ASSERT_GE(info_decodes, 1u);

    // Full sequential decode: every chunk frame decodes exactly once.
    CountingCodec::decodes = 0;
    auto ref = reference(store);
    ASSERT_EQ(ref, trace);
    uint64_t full_decodes = CountingCodec::decodes.load() - info_decodes;
    ASSERT_GT(full_decodes, 50u); // the geometry gives many frames

    // Opening the index scans frame headers only — not one chunk
    // payload is decoded (only the unavoidable INFO payload is).
    CountingCodec::decodes = 0;
    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    EXPECT_EQ(CountingCodec::decodes.load(), info_decodes);

    // A 1% slice decodes exactly the frames covering its transform
    // buffers — computed from the same public geometry the cursor
    // uses — and returns bytes identical to the sequential decode.
    uint64_t begin = 50'000, end = 51'000;
    const auto &idx = *index.value();
    const comp::StreamLayout &layout = *idx.chunkLayout(0);
    uint64_t b0 = idx.bufferOf(begin), b1 = idx.bufferOf(end - 1);
    uint64_t raw0 = idx.bufferRawOffset(b0);
    uint64_t raw1 = idx.bufferRawOffset(b1 + 1);
    size_t covering = layout.frameContaining(raw1 - 1) -
                      layout.frameContaining(raw0) + 1;

    auto cursor = idx.cursor();
    CountingCodec::decodes = 0;
    std::vector<uint64_t> out;
    auto s = cursor->readRange(begin, end, out);
    ASSERT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(CountingCodec::decodes.load(), covering);
    ASSERT_LT(covering, full_decodes / 10); // it IS a small subset
    ASSERT_EQ(out.size(), end - begin);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], ref[static_cast<size_t>(begin) + i]);

    // Seeking decodes only from the containing frame onward, bounded
    // by the frames after the seek point, never the whole stream.
    CountingCodec::decodes = 0;
    ASSERT_TRUE(cursor->seek(begin).ok());
    uint64_t buf[100];
    ASSERT_EQ(cursor->read(buf, 100), 100u);
    EXPECT_LT(CountingCodec::decodes.load(), full_decodes / 10);
    for (size_t i = 0; i < 100; ++i)
        ASSERT_EQ(buf[i], ref[static_cast<size_t>(begin) + i]);
}

// ----------------------------------------------------- corruption

TEST(IndexOpen, CorruptFrameIndexRejected)
{
    auto trace = makeTrace(20'000, 26);
    auto store =
        writeContainer(trace, makeOptions(core::Mode::Lossless, "store"));

    core::MemoryStore bad;
    {
        auto sink = bad.createInfo();
        sink->write(store.infoBytes().data(), store.infoBytes().size());
        auto chunk = store.chunkBytes(0);
        ASSERT_GT(chunk.size(), 5u);
        chunk[chunk.size() - 5] ^= 0x01; // inside the stored index
        auto csink = bad.createChunk(0);
        csink->write(chunk.data(), chunk.size());
    }
    auto index = core::AtcIndex::open(bad);
    ASSERT_FALSE(index.ok());
    EXPECT_NE(index.status().message().find("index"), std::string::npos)
        << index.status().message();
}

TEST(IndexOpen, CrossLinkedChunkRejected)
{
    // INFO of a long trace over the chunk of a short one: the scanned
    // layout cannot cover the recorded count.
    auto long_store = writeContainer(makeTrace(30'000, 27),
                                     makeOptions(core::Mode::Lossless));
    auto short_store = writeContainer(makeTrace(6'000, 27),
                                      makeOptions(core::Mode::Lossless));
    core::MemoryStore franken;
    {
        auto sink = franken.createInfo();
        sink->write(long_store.infoBytes().data(),
                    long_store.infoBytes().size());
        auto csink = franken.createChunk(0);
        csink->write(short_store.chunkBytes(0).data(),
                     short_store.chunkBytes(0).size());
    }
    auto index = core::AtcIndex::open(franken);
    ASSERT_FALSE(index.ok());
    EXPECT_NE(index.status().message().find("truncated"),
              std::string::npos)
        << index.status().message();
}

// ------------------------------------------------------- empty trace

TEST(CursorEdge, EmptyTrace)
{
    std::vector<uint64_t> empty;
    auto store = writeContainer(empty, makeOptions(core::Mode::Lossless));
    auto index = core::AtcIndex::open(store);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto cursor = index.value()->cursor();
    EXPECT_EQ(cursor->size(), 0u);
    ASSERT_TRUE(cursor->seek(0).ok());
    uint64_t v;
    EXPECT_EQ(cursor->read(&v, 1), 0u);
    EXPECT_FALSE(cursor->seek(1).ok());
    std::vector<uint64_t> out;
    EXPECT_TRUE(cursor->readRange(0, 0, out).ok());
    EXPECT_TRUE(out.empty());
}

// --------------------------------------------- concurrent index sharing

class SharedIndex : public testing::TestWithParam<core::Mode>
{
};

/**
 * Hammer one shared index from @p kThreads threads — each with its own
 * cursor and offsets, seeks, streaming reads and ranged reads
 * interleaved — and return how many threads saw a wrong byte or a
 * failed call.
 */
int
stressCursors(const std::shared_ptr<const core::AtcIndex> &index,
              const std::vector<uint64_t> &ref)
{
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto cursor = index->cursor();
            util::Rng rng(1000 + static_cast<uint64_t>(t));
            std::vector<uint64_t> out;
            for (int round = 0; round < 12; ++round) {
                uint64_t off = rng.below(ref.size());
                if (!cursor->seek(off).ok()) {
                    ++failures;
                    return;
                }
                uint64_t landed = cursor->tell();
                uint64_t buf[64];
                size_t got = cursor->read(
                    buf, std::min<size_t>(64, ref.size() -
                                                  static_cast<size_t>(
                                                      landed)));
                for (size_t i = 0; i < got; ++i) {
                    if (buf[i] != ref[static_cast<size_t>(landed) + i]) {
                        ++failures;
                        return;
                    }
                }
                uint64_t b = rng.below(ref.size());
                uint64_t e = std::min<uint64_t>(ref.size(),
                                                b + 1 + rng.below(2000));
                if (!cursor->readRange(b, e, out).ok() ||
                    out.size() != e - b) {
                    ++failures;
                    return;
                }
                for (size_t i = 0; i < out.size(); ++i) {
                    if (out[i] != ref[static_cast<size_t>(b) + i]) {
                        ++failures;
                        return;
                    }
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    return failures.load();
}

TEST_P(SharedIndex, ManyThreadsManyCursorsOneIndex)
{
    auto trace = makeTrace(40'000, 28);
    auto store = writeContainer(trace, makeOptions(GetParam()));
    auto ref = reference(store);

    auto opened = core::AtcIndex::open(store);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_EQ(stressCursors(opened.value(), ref), 0);
}

TEST_P(SharedIndex, TinyCacheEvictionRacesStayCoherent)
{
    // A near-zero budget keeps the shared cache under constant
    // eviction pressure while 8 threads insert and hit concurrently —
    // the TSan target for the cache itself, and a liveness check that
    // eviction never yanks a block out from under a reader.
    auto trace = makeTrace(40'000, 35);
    auto opt = makeOptions(GetParam());
    opt.lossy.epsilon = 0.0; // many distinct chunks -> shard collisions
    auto store = writeContainer(trace, opt);
    auto ref = reference(store);

    // Big enough to retain individual units (transform buffers are
    // 777 records = 6 KB here, chunks 8 KB), far too small for the
    // working set.
    core::IndexOptions iopt;
    iopt.cache_bytes = 16 * 1024;
    auto opened = core::AtcIndex::open(store, iopt);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_EQ(stressCursors(opened.value(), ref), 0);
    core::BlockCacheStats stats = opened.value()->cache().stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes, iopt.cache_bytes); // never over budget
}

INSTANTIATE_TEST_SUITE_P(Modes, SharedIndex,
                         testing::Values(core::Mode::Lossless,
                                         core::Mode::Lossy));

// ------------------------------------------------- shared block cache

class CacheBudget : public testing::TestWithParam<core::Mode>
{
};

TEST_P(CacheBudget, ResultsIdenticalAcrossBudgets)
{
    // Disabled, pathologically tiny, below-one-unit and comfortably
    // large budgets must be observationally identical — the cache is a
    // pure accelerator. Units here are a 777-record buffer (6216 B) or
    // a 1000-record chunk (8000 B).
    auto trace = makeTrace(20'000, 34);
    auto store = writeContainer(trace, makeOptions(GetParam()));
    auto ref = reference(store);

    for (size_t cache_bytes :
         {size_t(0), size_t(1), size_t(4096), size_t(64) << 20}) {
        core::IndexOptions iopt;
        iopt.cache_bytes = cache_bytes;
        auto opened = core::AtcIndex::open(store, iopt);
        ASSERT_TRUE(opened.ok()) << opened.status().message();
        auto index = opened.value();
        EXPECT_EQ(index->cache().enabled(), cache_bytes != 0);

        auto cursor = index->cursor();
        util::Rng rng(77); // same access pattern for every budget
        std::vector<uint64_t> out;
        for (int round = 0; round < 16; ++round) {
            uint64_t off = rng.below(ref.size());
            ASSERT_TRUE(cursor->seek(off).ok()) << cache_bytes;
            uint64_t landed = cursor->tell();
            uint64_t buf[128];
            size_t want = std::min<size_t>(
                128, ref.size() - static_cast<size_t>(landed));
            ASSERT_EQ(cursor->read(buf, want), want) << cache_bytes;
            for (size_t i = 0; i < want; ++i)
                ASSERT_EQ(buf[i], ref[static_cast<size_t>(landed) + i])
                    << "budget " << cache_bytes << " offset " << off;
            uint64_t b = rng.below(ref.size());
            uint64_t e = std::min<uint64_t>(ref.size(),
                                            b + 1 + rng.below(3000));
            ASSERT_TRUE(cursor->readRange(b, e, out).ok()) << cache_bytes;
            ASSERT_EQ(out.size(), e - b);
            for (size_t i = 0; i < out.size(); ++i)
                ASSERT_EQ(out[i], ref[static_cast<size_t>(b) + i])
                    << "budget " << cache_bytes << " range " << b;
        }
        // A budget smaller than one unit retains nothing.
        if (cache_bytes != 0 && cache_bytes < 6216) {
            EXPECT_EQ(index->cache().stats().entries, 0u) << cache_bytes;
            EXPECT_EQ(index->cache().stats().insertions, 0u) << cache_bytes;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, CacheBudget,
                         testing::Values(core::Mode::Lossless,
                                         core::Mode::Lossy));

int64_t
transformDecodes()
{
    return obs::Registry::global()
        .counter("atc.transform.decode_buffers")
        .value();
}

TEST(SeekHot, CacheResidentBuffersDecodeNothing)
{
    registerCountingCodec();
    auto trace = makeTrace(60'000, 30);
    auto opt = makeOptions(core::Mode::Lossless, "countstore");
    auto store = writeContainer(trace, opt);

    auto opened = core::AtcIndex::open(store); // default budget
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto index = opened.value();
    auto cursor = index->cursor();

    // Warm: the first visit of each offset decodes its covering
    // transform buffers into the shared cache.
    const uint64_t offsets[] = {777, 12'345, 23'456, 41'000, 59'000};
    uint64_t buf[500];
    std::vector<uint64_t> out;
    for (uint64_t off : offsets) {
        ASSERT_TRUE(cursor->seek(off).ok());
        ASSERT_EQ(cursor->read(buf, 500), 500u);
        ASSERT_TRUE(cursor->readRange(off, off + 500, out).ok());
    }
    ASSERT_GT(index->cache().stats().entries, 0u);

    // Hot: the working set is cache-resident — repeated seeks and
    // ranges, from this cursor and from a second cursor sharing the
    // index, run neither a codec decode nor an inverse transform.
    auto cursor2 = index->cursor();
    CountingCodec::decodes = 0;
    int64_t transforms = transformDecodes();
    uint64_t hits = index->cache().stats().hits;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t off : offsets) {
            for (auto *c : {cursor.get(), cursor2.get()}) {
                ASSERT_TRUE(c->seek(off).ok());
                ASSERT_EQ(c->read(buf, 500), 500u);
                for (size_t i = 0; i < 500; ++i)
                    ASSERT_EQ(buf[i], trace[off + i]);
                ASSERT_TRUE(c->readRange(off, off + 500, out).ok());
                ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                       trace.begin() + off));
            }
        }
    }
    EXPECT_EQ(CountingCodec::decodes.load(), 0u);
    EXPECT_EQ(transformDecodes() - transforms, 0);
    EXPECT_GT(index->cache().stats().hits, hits);
}

/** @return how many distinct frames cover transform buffers @p bufs
 *  (none of them the last buffer). */
size_t
coveringFrames(const core::AtcIndex &idx, std::vector<uint64_t> bufs)
{
    const comp::StreamLayout &layout = *idx.chunkLayout(0);
    std::set<size_t> frames;
    for (uint64_t b : bufs) {
        size_t f0 = layout.frameContaining(idx.bufferRawOffset(b));
        size_t f1 = layout.frameContaining(idx.bufferRawOffset(b + 1) - 1);
        for (size_t f = f0; f <= f1; ++f)
            frames.insert(f);
    }
    return frames.size();
}

class DecodeOnce : public testing::TestWithParam<std::pair<size_t, bool>>
{
};

TEST_P(DecodeOnce, ColdSeekStreamAndRangeDecodeEachCoveringFrameOnce)
{
    // Frames smaller than a buffer (4 KiB vs 6216 B) put boundary
    // frames between neighbours; frames larger than a buffer (16 KiB)
    // let one frame span a resident buffer and both its neighbours.
    registerCountingCodec();
    auto trace = makeTrace(60'000, 36);
    auto opt = makeOptions(core::Mode::Lossless, "countstore");
    opt.pipeline.codec_block = GetParam().first;
    auto store = writeContainer(trace, opt);
    parallel::ThreadPool pool(3);
    core::CursorOptions copt;
    copt.pool = GetParam().second ? &pool : nullptr;

    const uint64_t kB = opt.pipeline.buffer_addrs;
    const uint64_t b0 = 20, k = 5;
    auto fresh = [&] {
        auto opened = core::AtcIndex::open(store);
        EXPECT_TRUE(opened.ok()) << opened.status().message();
        return opened.value();
    };

    // Cold seek into b0, then stream to the end of buffer b0+k-1.
    {
        auto index = fresh();
        auto cursor = index->cursor(copt);
        CountingCodec::decodes = 0;
        uint64_t begin = b0 * kB + 100, end = (b0 + k) * kB;
        ASSERT_TRUE(cursor->seek(begin).ok());
        std::vector<uint64_t> got(end - begin);
        ASSERT_EQ(cursor->read(got.data(), got.size()), got.size());
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               trace.begin() + begin));
        EXPECT_EQ(CountingCodec::decodes.load(),
                  coveringFrames(*index, {20, 21, 22, 23, 24}));
    }
    // Cold readRange over the same k buffers.
    {
        auto index = fresh();
        auto cursor = index->cursor(copt);
        CountingCodec::decodes = 0;
        std::vector<uint64_t> out;
        uint64_t begin = b0 * kB + 100, end = (b0 + k) * kB - 5;
        ASSERT_TRUE(cursor->readRange(begin, end, out).ok());
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               trace.begin() + begin));
        EXPECT_EQ(CountingCodec::decodes.load(),
                  coveringFrames(*index, {20, 21, 22, 23, 24}));

        // With only b0+2 resident, the misses on either side of it
        // still decode each of their covering frames once.
        auto index2 = fresh();
        auto cursor2 = index2->cursor(copt);
        ASSERT_TRUE(
            cursor2->readRange((b0 + 2) * kB, (b0 + 3) * kB, out).ok());
        CountingCodec::decodes = 0;
        ASSERT_TRUE(cursor2->readRange(begin, end, out).ok());
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               trace.begin() + begin));
        EXPECT_EQ(CountingCodec::decodes.load(),
                  coveringFrames(*index2, {20, 21, 23, 24}));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, DecodeOnce,
    testing::Values(std::pair{size_t(4096), false},
                    std::pair{size_t(4096), true},
                    std::pair{size_t(16384), false},
                    std::pair{size_t(16384), true}));

// ------------------------------------------- lazy lossy restore

/** @return codec block decodes one whole-chunk decode of @p id runs. */
uint64_t
chunkDecodes(core::MemoryStore &store, const core::AtcIndex &index,
             uint32_t id)
{
    uint64_t before = CountingCodec::decodes.load();
    core::decodeChunkPayload(index.info().pipeline, store, id);
    return CountingCodec::decodes.load() - before;
}

/** Copy of @p store with one payload byte of chunk @p id flipped: the
 *  frame index still scans, but decoding the chunk fails its CRC. */
core::MemoryStore
corruptChunk(const core::MemoryStore &store, uint32_t id)
{
    core::MemoryStore bad;
    bad.createInfo()->write(store.infoBytes().data(),
                            store.infoBytes().size());
    for (uint32_t c = 0; c < store.chunkCount(); ++c) {
        std::vector<uint8_t> bytes = store.chunkBytes(c);
        if (c == id)
            bytes[bytes.size() / 4] ^= 0x5a;
        bad.createChunk(c)->write(bytes.data(), bytes.size());
    }
    return bad;
}

TEST(LossyRange, RestoresTheStreamingPositionLazily)
{
    registerCountingCodec();
    auto trace = makeTrace(10'000, 37);
    auto opt = makeOptions(core::Mode::Lossy, "countstore");
    opt.lossy.epsilon = 0.0; // every interval is its own chunk
    auto good = writeContainer(trace, opt);
    auto ref = reference(good);
    // Interval 8's chunk decodes cleanly in `good`, fails in `bad`.
    auto bad = corruptChunk(good, 8);

    for (bool corrupt : {false, true}) {
        core::MemoryStore &store = corrupt ? bad : good;
        core::IndexOptions iopt;
        iopt.cache_bytes = 0; // every chunk load is a decode
        auto opened = core::AtcIndex::open(store, iopt);
        ASSERT_TRUE(opened.ok()) << opened.status().message();
        auto index = opened.value();
        const auto &records = index->info().records;
        ASSERT_EQ(records.size(), 10u);
        uint64_t covering = chunkDecodes(good, *index, records[6].chunk_id);

        // Both cursors stop mid-interval 2; only `cursor` runs a range.
        auto cursor = index->cursor();
        auto twin = index->cursor();
        uint64_t probe[7], twin_probe[7];
        ASSERT_TRUE(cursor->seek(2500).ok());
        ASSERT_TRUE(twin->seek(2500).ok());
        ASSERT_EQ(cursor->read(probe, 7), 7u);
        ASSERT_EQ(twin->read(twin_probe, 7), 7u);

        std::vector<uint64_t> out;
        CountingCodec::decodes = 0;
        if (corrupt) {
            // Intervals 7..8: interval 8's chunk fails mid-range.
            EXPECT_FALSE(cursor->readRange(7100, 8900, out).ok());
        } else {
            // Interval 6 only: its chunk is the one decode, with no
            // second decode of interval 2's chunk to restore the
            // position the next request may never use.
            ASSERT_TRUE(cursor->readRange(6100, 6900, out).ok());
            ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                   ref.begin() + 6100));
            EXPECT_EQ(CountingCodec::decodes.load(), covering);
        }

        // Streaming resumes exactly as if the range never ran.
        EXPECT_EQ(cursor->tell(), twin->tell()) << corrupt;
        std::vector<uint64_t> got(1500), want(1500);
        ASSERT_EQ(cursor->read(got.data(), got.size()), got.size());
        ASSERT_EQ(twin->read(want.data(), want.size()), want.size());
        EXPECT_EQ(got, want) << corrupt;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin() + 2007));
        EXPECT_EQ(cursor->tell(), twin->tell()) << corrupt;
    }
}

/** Store reading its chunks from @p good, or from @p bad while
 *  `corrupt` is set: a chunk that fails once and then heals. */
class SwitchStore : public core::ChunkStore
{
  public:
    SwitchStore(core::MemoryStore &good, core::MemoryStore &bad)
        : good_(good), bad_(bad)
    {}

    std::unique_ptr<util::ByteSink>
    createChunk(uint32_t) override
    {
        util::raise("read-only store");
    }
    std::unique_ptr<util::ByteSource>
    openChunk(uint32_t id) override
    {
        return (corrupt ? bad_ : good_).openChunk(id);
    }
    std::unique_ptr<util::ByteSink>
    createInfo() override
    {
        util::raise("read-only store");
    }
    std::unique_ptr<util::ByteSource>
    openInfo() override
    {
        return good_.openInfo();
    }
    uint64_t totalBytes() const override { return good_.totalBytes(); }

    bool corrupt = false;

  private:
    core::MemoryStore &good_;
    core::MemoryStore &bad_;
};

TEST(LossyRange, ReadRetriedAfterAFailedParkedIntervalResumesInPlace)
{
    registerCountingCodec();
    // The last interval (9000..9300) is shorter than the skip below,
    // so resuming in the wrong interval would also read past it.
    auto trace = makeTrace(9'300, 39);
    auto opt = makeOptions(core::Mode::Lossy, "countstore");
    opt.lossy.epsilon = 0.0;
    auto good = writeContainer(trace, opt);
    auto ref = reference(good);
    uint32_t parked_chunk;
    {
        auto opened = core::AtcIndex::open(good);
        ASSERT_TRUE(opened.ok()) << opened.status().message();
        ASSERT_EQ(opened.value()->info().records.size(), 10u);
        parked_chunk = opened.value()->info().records[8].chunk_id;
    }
    auto bad = corruptChunk(good, parked_chunk);
    SwitchStore store(good, bad);

    core::IndexOptions iopt;
    iopt.cache_bytes = 0; // the parked interval's chunk is reloaded
    auto opened = core::AtcIndex::open(store, iopt);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto index = opened.value();

    // Both cursors stop 500 records into interval 8; `cursor` then
    // runs a range elsewhere, which parks it there with a skip.
    auto cursor = index->cursor();
    auto twin = index->cursor();
    std::vector<uint64_t> head(500);
    ASSERT_TRUE(cursor->seek(8000).ok());
    ASSERT_TRUE(twin->seek(8000).ok());
    ASSERT_EQ(cursor->read(head.data(), head.size()), head.size());
    ASSERT_EQ(twin->read(head.data(), head.size()), head.size());
    std::vector<uint64_t> out;
    ASSERT_TRUE(cursor->readRange(3100, 3900, out).ok());

    // Regenerating the parked interval fails its CRC; the retry, with
    // the chunk readable again, resumes where the twin stands.
    std::vector<uint64_t> got(1000), want(1000);
    store.corrupt = true;
    EXPECT_THROW(cursor->read(got.data(), got.size()), util::Error);
    EXPECT_EQ(cursor->tell(), twin->tell());
    store.corrupt = false;
    size_t n = cursor->read(got.data(), got.size());
    ASSERT_EQ(n, 800u);
    ASSERT_EQ(twin->read(want.data(), want.size()), n);
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + n, want.begin()));
    EXPECT_TRUE(std::equal(got.begin(), got.begin() + n,
                           ref.begin() + 8500));
    EXPECT_EQ(cursor->tell(), twin->tell());
    EXPECT_EQ(cursor->tell(), 9300u);
}

// --------------------------------------------- single-flight decodes

/** Store codec counting block decodes; while sleep_ms is set each
 *  decode sleeps, so concurrent readers of one cold unit all arrive
 *  while its decode is in flight, and while fail is set each decode
 *  raises as a corrupt frame would. */
class SleepyCountingCodec : public comp::StoreCodec
{
  public:
    std::string name() const override { return "sleepycount"; }

    void
    decompressBlock(util::ByteSource &in, size_t raw_size,
                    std::vector<uint8_t> &out) const override
    {
        ++decodes;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sleep_ms.load()));
        if (fail.load())
            util::raise("corrupt block (injected)");
        comp::StoreCodec::decompressBlock(in, raw_size, out);
    }

    static std::atomic<uint64_t> decodes;
    static std::atomic<int> sleep_ms;
    static std::atomic<bool> fail;
};

std::atomic<uint64_t> SleepyCountingCodec::decodes{0};
std::atomic<int> SleepyCountingCodec::sleep_ms{0};
std::atomic<bool> SleepyCountingCodec::fail{false};

void
registerSleepyCountingCodec()
{
    static bool once = [] {
        comp::CodecRegistry::instance().add(
            "sleepycount", [](const comp::CodecSpec &)
                -> util::StatusOr<std::shared_ptr<const comp::Codec>> {
                return std::shared_ptr<const comp::Codec>(
                    std::make_shared<SleepyCountingCodec>());
            });
        return true;
    }();
    (void)once;
}

class SingleFlight
    : public testing::TestWithParam<std::tuple<core::Mode, size_t>>
{
};

TEST_P(SingleFlight, ConcurrentColdReadersShareOneDecode)
{
    registerSleepyCountingCodec();
    using Codec = SleepyCountingCodec;
    auto [mode, budget] = GetParam();
    auto trace = makeTrace(6'000, 38);
    auto opt = makeOptions(mode, "sleepycount");
    opt.lossy.epsilon = 0.0;
    auto store = writeContainer(trace, opt);
    auto ref = reference(store);

    core::IndexOptions iopt;
    iopt.cache_bytes = budget;
    auto opened = core::AtcIndex::open(store, iopt);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto index = opened.value();

    // The unit: transform buffer 3 (records 2331..3108) or the chunk
    // of interval 3 (records 3000..4000); the range lies inside it.
    bool lossless = mode == core::Mode::Lossless;
    uint64_t begin = lossless ? 3 * 777 + 10 : 3010;
    uint64_t end = lossless ? 4 * 777 - 10 : 3990;
    uint64_t unit_decodes;
    if (lossless) {
        unit_decodes = coveringFrames(*index, {3});
    } else {
        uint64_t before = Codec::decodes.load();
        core::decodeChunkPayload(index->info().pipeline, store,
                                 index->info().records[3].chunk_id);
        unit_decodes = Codec::decodes.load() - before;
    }

    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<core::AtcCursor>> cursors;
    for (int t = 0; t < kThreads; ++t)
        cursors.push_back(index->cursor());
    auto race = [&](std::vector<util::Status> &status,
                    std::vector<std::vector<uint64_t>> &outs) {
        std::barrier sync(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                sync.arrive_and_wait();
                status[t] = cursors[t]->readRange(begin, end, outs[t]);
            });
        for (auto &th : threads)
            th.join();
    };
    std::vector<util::Status> status(kThreads);
    std::vector<std::vector<uint64_t>> outs(kThreads);

    // A failing decode reaches every reader and leaves no entry: a
    // retry decodes afresh instead of hanging or replaying the error.
    Codec::sleep_ms = 50;
    Codec::fail = true;
    Codec::decodes = 0;
    race(status, outs);
    EXPECT_EQ(Codec::decodes.load(), 1u) << "one shared failed attempt";
    for (const util::Status &st : status) {
        ASSERT_FALSE(st.ok());
        EXPECT_NE(st.message().find("injected"), std::string::npos)
            << st.message();
    }
    std::vector<uint64_t> out;
    EXPECT_FALSE(cursors[0]->readRange(begin, end, out).ok());
    EXPECT_EQ(Codec::decodes.load(), 2u) << "the retry must decode again";
    Codec::fail = false;
    ASSERT_TRUE(cursors[0]->readRange(begin, end, out).ok());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), ref.begin() + begin));
    EXPECT_EQ(Codec::decodes.load(), 2u + unit_decodes);

    // A cold unit read by all 8 at once decodes exactly once.
    auto fresh = core::AtcIndex::open(store, iopt);
    ASSERT_TRUE(fresh.ok());
    index = fresh.value();
    cursors.clear();
    for (int t = 0; t < kThreads; ++t)
        cursors.push_back(index->cursor());
    Codec::decodes = 0;
    race(status, outs);
    Codec::sleep_ms = 0;
    EXPECT_EQ(Codec::decodes.load(), unit_decodes);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(status[t].ok()) << status[t].message();
        EXPECT_EQ(outs[t], outs[0]);
    }
    EXPECT_TRUE(std::equal(outs[0].begin(), outs[0].end(),
                           ref.begin() + begin));
    EXPECT_EQ(outs[0].size(), end - begin);
    EXPECT_GT(index->cache().stats().coalesced, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBudgets, SingleFlight,
    testing::Combine(testing::Values(core::Mode::Lossless,
                                     core::Mode::Lossy),
                     testing::Values(size_t(0), size_t(4096),
                                     core::kDefaultDecodedCacheBytes)));

// ----------------------------------------- pooled readRange (parallel)

TEST(PooledRange, ParallelReaderCursorMatchesSerial)
{
    auto trace = makeTrace(60'000, 29);
    auto store = writeContainer(trace, makeOptions(core::Mode::Lossless));

    parallel::ParallelOptions popt;
    popt.threads = 4;
    parallel::ParallelAtcReader reader(store, popt);
    auto cursor = reader.cursor();

    std::vector<uint64_t> out;
    auto s = cursor->readRange(12'345, 23'456, out);
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_EQ(out.size(), 23'456u - 12'345u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], trace[12'345 + i]);

    // The reader's own sequential stream is unaffected.
    EXPECT_EQ(trace::collect(reader), trace);
}

TEST(PooledRange, LossyRangeSpanningManyChunksUsesPoolStaysExact)
{
    registerCountingCodec();
    auto trace = makeTrace(9'000, 33);
    auto opt = makeOptions(core::Mode::Lossy, "countstore");
    opt.lossy.epsilon = 0.0; // every interval becomes its own chunk
    auto store = writeContainer(trace, opt);
    auto ref = reference(store);

    auto opened = core::AtcIndex::open(store);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto index = opened.value();
    ASSERT_GE(index->info().chunk_count, 4u);

    parallel::ThreadPool pool(4);
    core::CursorOptions copt;
    copt.pool = &pool;
    auto pooled = index->cursor(copt);

    // Cold: the distinct covering chunks decode on the pool (proved by
    // the codec seeing worker threads), record-exactly.
    CountingCodec::resetThreads();
    std::vector<uint64_t> out;
    ASSERT_TRUE(pooled->readRange(500, 8'500, out).ok());
    ASSERT_EQ(out.size(), 8'000u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], ref[500 + i]);
    EXPECT_TRUE(CountingCodec::decodedOffThread());

    // Warm: the covering chunks are cache-resident — nothing decodes.
    uint64_t before = CountingCodec::decodes.load();
    ASSERT_TRUE(pooled->readRange(500, 8'500, out).ok());
    EXPECT_EQ(CountingCodec::decodes.load(), before);

    // Parity against a serial, cache-disabled cursor over a fresh
    // index — the pooled fan-out is a pure accelerator.
    core::IndexOptions iopt;
    iopt.cache_bytes = 0;
    auto serial_idx = core::AtcIndex::open(store, iopt);
    ASSERT_TRUE(serial_idx.ok());
    auto serial = serial_idx.value()->cursor();
    std::vector<uint64_t> serial_out;
    ASSERT_TRUE(serial->readRange(500, 8'500, serial_out).ok());
    EXPECT_EQ(out, serial_out);
}

} // namespace
} // namespace atc

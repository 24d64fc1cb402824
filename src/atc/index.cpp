#include "atc/index.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>

#include "parallel/thread_pool.hpp"

namespace atc::core {

namespace {

/**
 * Raw (pre-codec) byte size of a lossless stream holding @p count
 * records in transform buffers of @p buffer_addrs: each buffer is
 * varint(n) + 8n bytes, and the stream ends with a 1-byte 0 varint.
 * This is what lets the index cross-check a scanned frame layout
 * against the INFO-recorded count without decoding anything.
 */
uint64_t
expectedRawBytes(uint64_t count, uint64_t buffer_addrs)
{
    uint64_t full = count / buffer_addrs;
    uint64_t rem = count % buffer_addrs;
    uint64_t bytes = full * (util::varintLen(buffer_addrs) +
                             8 * buffer_addrs);
    if (rem != 0)
        bytes += util::varintLen(rem) + 8 * rem;
    return bytes + 1;
}

/** @return the interval record containing record offset @p rec. */
size_t
recordContaining(const std::vector<uint64_t> &starts, uint64_t rec)
{
    auto it = std::upper_bound(starts.begin(), starts.end(), rec);
    return static_cast<size_t>(it - starts.begin()) - 1;
}

/**
 * Read-and-discard exactly @p n records through @p read (a callable
 * with TraceSource::read's signature), raising @p what if the source
 * dries first.
 */
template <typename ReadFn>
void
discardRecords(ReadFn &&read, uint64_t n, const char *what)
{
    uint64_t scratch[4096];
    while (n > 0) {
        size_t take = n < 4096 ? static_cast<size_t>(n) : 4096;
        size_t got = read(scratch, take);
        ATC_CHECK(got != 0, what);
        n -= got;
    }
}

/** Fill @p out completely through @p read, raising @p what if the
 *  source dries first. */
template <typename ReadFn>
void
fillRecords(ReadFn &&read, std::vector<uint64_t> &out, const char *what)
{
    size_t filled = 0;
    while (filled < out.size()) {
        size_t got = read(out.data() + filled, out.size() - filled);
        ATC_CHECK(got != 0, what);
        filled += got;
    }
}

} // namespace

AtcIndex::AtcIndex(ChunkStore &store, const IndexOptions &iopt)
    : store_(&store), cache_(iopt.cache_bytes)
{
}

AtcIndex::AtcIndex(std::unique_ptr<ChunkStore> owned,
                   const IndexOptions &iopt)
    : owned_store_(std::move(owned)), store_(owned_store_.get()),
      cache_(iopt.cache_bytes)
{
}

void
AtcIndex::load()
{
    info_ = readContainerInfo(*store_);
    codec_ = comp::makeCodec(info_.pipeline.codec);

    if (info_.mode == Mode::Lossy) {
        record_starts_.reserve(info_.records.size() + 1);
        record_starts_.push_back(0);
        uint64_t sum = 0;
        for (const IntervalRecord &rec : info_.records) {
            sum += rec.length;
            record_starts_.push_back(sum);
        }
        ATC_CHECK(sum == info_.count,
                  "interval trace length disagrees with the INFO "
                  "record count (corrupt container)");
    }

    if (info_.pipeline.frame_format != comp::FrameFormat::Seekable)
        return; // v1/v2: no frame index; cursors decode-and-skip

    uint32_t chunks = chunkCount();
    layouts_.reserve(chunks);
    for (uint32_t id = 0; id < chunks; ++id) {
        auto src = store_->openChunk(id);
        layouts_.push_back(
            comp::scanSeekableStream(*src, info_.pipeline.crc_trailer));
    }

    // Cross-check the scanned layouts against the INFO-recorded
    // lengths wherever the expected raw size is computable — a cheap,
    // decode-free probe for cross-linked or swapped chunk files.
    if (info_.mode == Mode::Lossless) {
        ATC_CHECK(!layouts_[0].indexed ||
                      layouts_[0].rawTotal() ==
                          expectedRawBytes(info_.count,
                                           info_.pipeline.buffer_addrs),
                  "chunk stream size disagrees with the INFO record "
                  "count (truncated or cross-linked container)");
    } else {
        for (const IntervalRecord &rec : info_.records) {
            if (rec.kind != IntervalRecord::Kind::Chunk)
                continue;
            const comp::StreamLayout &layout = layouts_[rec.chunk_id];
            ATC_CHECK(!layout.indexed ||
                          layout.rawTotal() ==
                              expectedRawBytes(
                                  rec.length,
                                  info_.pipeline.buffer_addrs),
                      "chunk " + std::to_string(rec.chunk_id) +
                          " size disagrees with its interval record "
                          "(corrupt container)");
        }
    }
}

util::StatusOr<std::shared_ptr<const AtcIndex>>
AtcIndex::open(ChunkStore &store, const IndexOptions &iopt)
{
    try {
        return openOrThrow(store, iopt);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

util::StatusOr<std::shared_ptr<const AtcIndex>>
AtcIndex::open(const std::string &dir, const IndexOptions &iopt)
{
    try {
        auto store = std::make_unique<DirectoryStore>(
            dir, detectContainerSuffix(dir));
        return std::shared_ptr<const AtcIndex>(
            openOrThrow(std::move(store), iopt));
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

util::StatusOr<std::shared_ptr<const AtcIndex>>
AtcIndex::open(const std::string &dir, const std::string &suffix,
               const IndexOptions &iopt)
{
    try {
        auto store = std::make_unique<DirectoryStore>(dir, suffix);
        return std::shared_ptr<const AtcIndex>(
            openOrThrow(std::move(store), iopt));
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

std::shared_ptr<const AtcIndex>
AtcIndex::openOrThrow(ChunkStore &store, const IndexOptions &iopt)
{
    std::shared_ptr<AtcIndex> index(new AtcIndex(store, iopt));
    index->load();
    return index;
}

std::shared_ptr<const AtcIndex>
AtcIndex::openOrThrow(std::unique_ptr<ChunkStore> store,
                      const IndexOptions &iopt)
{
    std::shared_ptr<AtcIndex> index(new AtcIndex(std::move(store), iopt));
    index->load();
    return index;
}

std::unique_ptr<AtcCursor>
AtcIndex::cursor(const CursorOptions &copt) const
{
    return std::make_unique<AtcCursor>(shared_from_this(), copt);
}

bool
AtcIndex::nativeSeek() const
{
    // Lossy seeks resolve through the interval trace alone, so every
    // version seeks natively at interval granularity; lossless needs
    // the v3 frame index.
    return info_.mode == Mode::Lossy || !layouts_.empty();
}

uint32_t
AtcIndex::chunkCount() const
{
    return info_.mode == Mode::Lossless
               ? 1
               : static_cast<uint32_t>(info_.chunk_count);
}

const comp::StreamLayout *
AtcIndex::chunkLayout(uint32_t id) const
{
    if (id >= layouts_.size())
        return nullptr;
    return &layouts_[id];
}

uint64_t
AtcIndex::bufferOf(uint64_t rec) const
{
    return rec / info_.pipeline.buffer_addrs;
}

uint64_t
AtcIndex::bufferLen(uint64_t b) const
{
    uint64_t buffer = info_.pipeline.buffer_addrs;
    uint64_t full = info_.count / buffer;
    return b < full ? buffer : info_.count % buffer;
}

uint64_t
AtcIndex::bufferRawOffset(uint64_t b) const
{
    uint64_t buffer = info_.pipeline.buffer_addrs;
    return b * (util::varintLen(buffer) + 8 * buffer);
}

uint64_t
AtcIndex::bufferRawEnd(uint64_t b) const
{
    uint64_t len = bufferLen(b);
    uint64_t end = bufferRawOffset(b) + util::varintLen(len) + 8 * len;
    ATC_CHECK(end <= layouts_[0].rawTotal(),
              "container truncated: transform buffer " + std::to_string(b) +
                  " lies past the indexed frames");
    return end;
}

std::vector<uint8_t>
AtcIndex::decodeFrameSpan(size_t fa, size_t fz, parallel::ThreadPool *pool,
                          FrameCarry *carry) const
{
    const comp::StreamLayout &layout = layouts_[0];
    std::vector<uint8_t> raw;
    raw.reserve(static_cast<size_t>(layout.raw_starts[fz + 1] -
                                    layout.raw_starts[fa]));
    std::vector<uint8_t> block;
    size_t f = fa;
    if (carry != nullptr && carry->frame == fa) {
        block = std::move(carry->bytes);
        carry->frame = SIZE_MAX;
        raw.insert(raw.end(), block.begin(), block.end());
        ++f;
    }

    // Payloads are fetched serially — zero-copy on mapped chunks, the
    // FramePayload's keepalive pinning the mapping — and decoded inline
    // or, with a pool, as tasks whose futures resolve in frame order.
    const comp::Codec &codec = *codec_.codec;
    std::deque<std::future<std::vector<uint8_t>>> pending;
    std::unique_ptr<util::ByteSource> src;
    if (f <= fz) {
        src = store_->openChunk(0);
        src->skip(layout.comp_starts[f]);
    }
    try {
        for (; f <= fz; ++f) {
            comp::FramePayload payload =
                comp::fetchIndexedFramePayload(*src, layout, f);
            size_t raw_size = static_cast<size_t>(layout.frames[f].raw_size);
            if (pool == nullptr) {
                comp::decodeSeekableFrame(codec, payload.data, payload.size,
                                          raw_size, block);
                raw.insert(raw.end(), block.begin(), block.end());
                continue;
            }
            pending.push_back(pool->async(
                [c = codec_.codec, raw_size, payload = std::move(payload)] {
                    std::vector<uint8_t> out;
                    comp::decodeSeekableFrame(*c, payload.data, payload.size,
                                              raw_size, out);
                    return out;
                }));
        }
    } catch (...) {
        // Queued tasks borrow memory-store payloads: drain them before
        // the error unwinds past the store's owner.
        for (auto &p : pending)
            p.wait();
        throw;
    }
    std::exception_ptr error;
    for (auto &p : pending) {
        try {
            block = p.get();
            raw.insert(raw.end(), block.begin(), block.end());
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
    }
    if (error)
        std::rethrow_exception(error);
    if (carry != nullptr) {
        carry->frame = fz;
        carry->bytes = std::move(block);
    }
    return raw;
}

std::vector<BlockCache<uint64_t>::Ptr>
AtcIndex::decodedBuffers(uint64_t b0, uint64_t b1, parallel::ThreadPool *pool,
                         FrameCarry *carry) const
{
    ATC_CHECK(!layouts_.empty() && info_.mode == Mode::Lossless,
              "buffer decode needs a seekable (v3) lossless container");
    const comp::StreamLayout &layout = layouts_[0];
    auto firstFrame = [&](uint64_t b) {
        return layout.frameContaining(bufferRawOffset(b));
    };
    auto lastFrame = [&](uint64_t b) {
        return layout.frameContaining(bufferRawEnd(b) - 1);
    };

    // Each buffer is a hit, a join of another thread's in-flight
    // decode, or claimed for this call to decode.
    using Cache = BlockCache<uint64_t>;
    std::vector<Cache::Ptr> units(b1 - b0 + 1);
    std::vector<uint64_t> missing;
    std::vector<Cache::Claim> claims;
    std::vector<std::pair<uint64_t, Cache::Wait>> joined;
    for (uint64_t b = b0; b <= b1; ++b) {
        Cache::Load l = cache_.load(b);
        if (l.block) {
            units[b - b0] = std::move(l.block);
        } else if (l.wait.valid()) {
            joined.emplace_back(b, std::move(l.wait));
        } else {
            missing.push_back(b);
            claims.push_back(std::move(l.claim));
        }
    }

    // Claimed buffers decode in runs: consecutive buffers, and buffers
    // whose covering frames meet across a resident or joined one,
    // share a single pass over their frames, so a boundary frame is
    // never decoded twice.
    try {
        for (size_t i = 0; i < missing.size();) {
            size_t j = i + 1;
            while (j < missing.size() &&
                   (missing[j] == missing[j - 1] + 1 ||
                    firstFrame(missing[j]) <= lastFrame(missing[j - 1])))
                ++j;
            size_t fa = firstFrame(missing[i]);
            std::vector<uint8_t> raw =
                decodeFrameSpan(fa, lastFrame(missing[j - 1]), pool, carry);
            for (; i < j; ++i) {
                uint64_t b = missing[i];
                size_t off = static_cast<size_t>(bufferRawOffset(b) -
                                                 layout.raw_starts[fa]);
                util::MemorySource header(raw.data() + off, raw.size() - off);
                uint64_t n = util::readVarint(header);
                ATC_CHECK(n == bufferLen(b),
                          "corrupt container: transform buffer " +
                              std::to_string(b) + " declares " +
                              std::to_string(n) + " records, expected " +
                              std::to_string(bufferLen(b)));
                units[b - b0] = claims[i].publish(inverseTransform(
                    info_.pipeline.transform,
                    raw.data() + off + util::varintLen(n),
                    static_cast<size_t>(n)));
            }
        }
    } catch (const std::exception &e) {
        for (Cache::Claim &claim : claims)
            if (claim)
                claim.fail(e.what());
        throw;
    }
    // Wait on other threads' decodes only once every claim of this
    // call is resolved, so two callers never wait on each other.
    for (auto &[b, wait] : joined)
        units[b - b0] = wait.get();
    return units;
}

AtcCursor::AtcCursor(std::shared_ptr<const AtcIndex> index,
                     const CursorOptions &copt)
    : index_(std::move(index)), pool_(copt.pool)
{
    const ContainerInfo &info = index_->info();
    if (info.mode == Mode::Lossless) {
        resetSequential();
    } else {
        LossyParams params;
        params.chunk_params = info.pipeline;
        params.interval_len = info.interval_len;
        params.epsilon = info.epsilon;
        // All cursors over one index decode chunks through the shared
        // cache, so a working set warmed by any of them serves all.
        lossy_ = std::make_unique<LossyDecoder>(params, index_->store(),
                                                &info.records,
                                                &index_->cache());
    }
}

AtcCursor::~AtcCursor() = default;

void
AtcCursor::resetSequential()
{
    // The from-the-start pipeline is the plain LosslessReader, so a
    // cursor that never seeks (or re-seeks to 0) keeps the full
    // sequential behavior — including CRC-trailer verification, which
    // a mid-stream seek necessarily forfeits.
    unit_.reset();
    sequential_.reset();
    chunk_src_ = index_->store().openChunk(0);
    sequential_ = std::make_unique<LosslessReader>(
        index_->info().pipeline, *chunk_src_);
    pos_ = 0;
}

size_t
AtcCursor::readImpl(uint64_t *out, size_t n)
{
    size_t got = 0;
    if (lossy_)
        got = lossy_->read(out, n);
    else if (sequential_)
        got = sequential_->read(out, n);
    else if (unit_)
        got = readUnits(out, n);
    pos_ += got;
    // A clean end before the INFO-recorded count means chunk data is
    // missing — fail loudly rather than return a shortened trace.
    if (got == 0 && n > 0)
        ATC_CHECK(pos_ == index_->size(),
                  "container truncated: INFO records " +
                      std::to_string(index_->size()) +
                      " values but only " + std::to_string(pos_) +
                      " could be decoded");
    return got;
}

size_t
AtcCursor::readUnits(uint64_t *out, size_t n)
{
    size_t got = 0;
    while (got < n) {
        if (unit_off_ == unit_->size()) {
            if (pos_ + got == index_->size())
                break;
            unit_ = index_->decodedBuffer(unit_b_ + 1, pool_, &carry_);
            ++unit_b_;
            unit_off_ = 0;
        }
        size_t take = std::min(n - got, unit_->size() - unit_off_);
        std::memcpy(out + got, unit_->data() + unit_off_,
                    take * sizeof(uint64_t));
        got += take;
        unit_off_ += take;
    }
    return got;
}

size_t
AtcCursor::read(uint64_t *out, size_t n)
{
    return readImpl(out, n);
}

void
AtcCursor::skipRecords(uint64_t n)
{
    discardRecords(
        [this](uint64_t *out, size_t take) { return readImpl(out, take); },
        n, "container truncated while seeking");
}

util::Status
AtcCursor::seek(uint64_t record_index)
{
    if (record_index > index_->size())
        return util::Status::error(
            "seek out of range: record " + std::to_string(record_index) +
            " exceeds trace size " + std::to_string(index_->size()));
    try {
        if (lossy_)
            seekLossy(record_index);
        else if (index_->chunkLayout(0) != nullptr)
            seekLossless(record_index);
        else
            seekLosslessFallback(record_index);
        return util::Status();
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

void
AtcCursor::seekLossless(uint64_t rec)
{
    if (rec == 0) {
        resetSequential();
        return;
    }
    // Record -> containing transform buffer, decoded (or found) whole
    // through the shared cache; the target is an offset inside it.
    // Nothing changes until the buffer is in hand, so a failed seek
    // leaves the cursor where it was.
    BlockCache<uint64_t>::Ptr unit;
    uint64_t b = index_->bufferOf(rec);
    if (rec < index_->size())
        unit = index_->decodedBuffer(b, pool_, &carry_);
    sequential_.reset();
    chunk_src_.reset();
    unit_ = std::move(unit); // null at end: nothing left to decode
    unit_b_ = b;
    unit_off_ = static_cast<size_t>(
        rec - b * index_->info().pipeline.buffer_addrs);
    pos_ = rec;
}

void
AtcCursor::seekLosslessFallback(uint64_t rec)
{
    // v1/v2: frames carry no compressed extents, so the only way to
    // reach a record is to decode everything before it. Backward seeks
    // restart the stream; forward seeks decode-and-skip.
    if (rec < pos_ || !sequential_)
        resetSequential();
    skipRecords(rec - pos_);
}

void
AtcCursor::seekLossy(uint64_t rec)
{
    // Land on the boundary of the interval containing the request —
    // the documented lossy approximation. tell() reports the landing
    // point, which is never past the request.
    const std::vector<uint64_t> &starts = index_->recordStarts();
    if (rec == index_->size()) {
        lossy_->seekRecord(index_->info().records.size());
        pos_ = rec;
        return;
    }
    size_t i = recordContaining(starts, rec);
    lossy_->seekRecord(i);
    pos_ = starts[i];
}

void
AtcCursor::rangeLossless(uint64_t begin, uint64_t end,
                         std::vector<uint64_t> &out)
{
    const ContainerInfo &info = index_->info();
    uint64_t want = end - begin;

    if (index_->chunkLayout(0) == nullptr) {
        // v1/v2 fallback: an independent decode-and-skip pass.
        auto src = index_->store().openChunk(0);
        LosslessReader reader(info.pipeline, *src);
        auto read = [&reader](uint64_t *o, size_t n) {
            return reader.read(o, n);
        };
        discardRecords(read, begin, "container truncated inside the range");
        out.resize(static_cast<size_t>(want));
        fillRecords(read, out, "container truncated inside the range");
        return;
    }

    // Covering transform buffers, through the shared cache (misses
    // decode together, on the pool when one is attached); each unit is
    // released as soon as its slice is copied out.
    uint64_t buffer = info.pipeline.buffer_addrs;
    uint64_t b0 = index_->bufferOf(begin);
    std::vector<BlockCache<uint64_t>::Ptr> units =
        index_->decodedBuffers(b0, index_->bufferOf(end - 1), pool_);
    out.resize(static_cast<size_t>(want));
    uint64_t at = begin;
    for (size_t i = 0; i < units.size(); ++i) {
        uint64_t first = (b0 + i) * buffer;
        uint64_t take = std::min<uint64_t>(end, first + units[i]->size()) - at;
        std::memcpy(out.data() + (at - begin),
                    units[i]->data() + (at - first),
                    static_cast<size_t>(take) * sizeof(uint64_t));
        at += take;
        units[i].reset();
    }
}

void
AtcCursor::prefetchLossyChunks(uint64_t begin, uint64_t end)
{
    // Decode the distinct covering chunks the shared cache is missing
    // on the pool, mirroring the lossless pooled-frame path: chunk
    // payloads are independent, so only the insertion is serialized.
    // Skipped without a pool or with the cache disabled (nowhere to
    // publish a decode the assembly loop could reuse).
    if (pool_ == nullptr || !index_->cache().enabled())
        return;
    const std::vector<uint64_t> &starts = index_->recordStarts();
    const std::vector<IntervalRecord> &records = index_->info().records;
    size_t i0 = recordContaining(starts, begin);
    size_t i1 = recordContaining(starts, end - 1);

    // Plan only as many distinct covering chunks as the cache can
    // retain: a chunk the budget cannot hold would be decoded on the
    // pool, dropped unstored, and decoded a second time by the
    // assembly loop — worse than no prefetch. Whatever is skipped
    // here simply decodes on demand, exactly once. The planning is
    // exact because the cache is one LRU (planned inserts go to its
    // front, so they evict stale residents, never each other) and an
    // interval's length equals its chunk's decoded length (validated
    // on read). Resident chunks count against the budget too: the
    // load() refreshes them, so planned inserts cannot evict them
    // mid-assembly.
    BlockCache<uint64_t> &cache = index_->cache();
    std::vector<uint32_t> counted;
    std::vector<std::pair<uint32_t, BlockCache<uint64_t>::Claim>> claims;
    uint64_t budget = cache.capacityBytes();
    uint64_t planned = 0;
    for (size_t i = i0; i <= i1; ++i) {
        uint32_t id = records[i].chunk_id;
        if (std::find(counted.begin(), counted.end(), id) !=
            counted.end())
            continue;
        uint64_t bytes = records[i].length * sizeof(uint64_t);
        if (planned + bytes > budget)
            continue;
        counted.push_back(id);
        planned += bytes;
        // Resident, or being decoded by another thread (the assembly
        // loop joins it): only claimed chunks are decoded here.
        BlockCache<uint64_t>::Load l = cache.load(id);
        if (l.claim)
            claims.emplace_back(id, std::move(l.claim));
    }

    // Each task resolves its claim, so a failed decode reaches every
    // thread waiting on that chunk and leaves no entry behind.
    std::deque<std::future<void>> pending;
    ChunkStore *store = &index_->store();
    for (auto &[id, claim] : claims)
        pending.push_back(pool_->async(
            [store, id = id, claim = std::move(claim),
             params = index_->info().pipeline]() mutable {
                claim.run([&] {
                    return decodeChunkPayload(params, *store, id);
                });
            }));
    // Drain every future even when one decode fails: the tasks borrow
    // the store through a raw pointer, and an abandoned future would
    // leave a queued task free to run after the index — and the store
    // it may own — is gone.
    std::exception_ptr error;
    for (auto &p : pending) {
        try {
            p.get();
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
    }
    if (error)
        std::rethrow_exception(error);
}

void
AtcCursor::rangeLossy(uint64_t begin, uint64_t end,
                      std::vector<uint64_t> &out)
{
    // Unlike seek(), extraction is record-exact: decode the intervals
    // covering the range (whole chunks — the lossy unit of decode) and
    // slice. The covering chunks are pool-decoded into the shared
    // cache first, so the cursor's decoder below mostly assembles from
    // cache hits. The streaming position is restored lazily: the
    // decoder is parked on the saved interval and in-interval skip,
    // which only the next read() regenerates — a following seek or
    // range never pays for it. The restore is a pure state reset, so
    // tell() stays exact even when the extraction fails.
    prefetchLossyChunks(begin, end);
    const std::vector<uint64_t> &starts = index_->recordStarts();
    auto park = [&](uint64_t rec) {
        if (rec == index_->size()) {
            lossy_->seekRecord(index_->info().records.size());
            return;
        }
        size_t i = recordContaining(starts, rec);
        lossy_->seekRecord(i, rec - starts[i]);
    };
    try {
        park(begin);
        out.resize(static_cast<size_t>(end - begin));
        fillRecords([this](uint64_t *o,
                           size_t n) { return lossy_->read(o, n); },
                    out, "container truncated inside the range");
    } catch (...) {
        park(pos_);
        throw;
    }
    park(pos_);
}

util::Status
AtcCursor::readRange(uint64_t begin, uint64_t end,
                     std::vector<uint64_t> &out)
{
    if (begin > end || end > index_->size())
        return util::Status::error(
            "range out of range: [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") over trace size " +
            std::to_string(index_->size()));
    out.clear();
    if (begin == end)
        return util::Status();
    try {
        if (lossy_)
            rangeLossy(begin, end, out);
        else
            rangeLossless(begin, end, out);
        return util::Status();
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

} // namespace atc::core

#include "atc/lossy.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace {

// The signature+decision stage runs on the writer's caller thread
// even when chunk compression is pooled — the ROADMAP's suspected
// serial bottleneck. These counters make that fraction measurable.
struct LossyMetrics {
    obs::Counter &signature_us;
    obs::Counter &decision_us;
    obs::Counter &chunk_compress_us;
    obs::Counter &chunk_decode_us;
    obs::Counter &chunks;
    obs::Counter &imitations;
};

LossyMetrics &
lossyMetrics()
{
    auto &r = obs::Registry::global();
    static LossyMetrics m{
        r.counter("lossy.signature_us"),
        r.counter("lossy.decision_us"),
        r.counter("lossy.chunk_compress_us"),
        r.counter("lossy.chunk_decode_us"),
        r.counter("lossy.chunks"),
        r.counter("lossy.imitations"),
    };
    return m;
}

}  // namespace

LossyEncoder::LossyEncoder(const LossyParams &params, ChunkStore &store,
                           ChunkFn chunk_fn)
    : params_(params), store_(store), chunk_fn_(std::move(chunk_fn))
{
    ATC_CHECK(params_.interval_len > 0, "interval length must be positive");
    ATC_CHECK(params_.chunk_table > 0, "chunk table must be nonempty");
    buffer_.reserve(params_.interval_len);
}

void
LossyEncoder::write(const uint64_t *addrs, size_t n)
{
    ATC_ASSERT(!finished_);
    stats_.addresses += n;
    while (n > 0) {
        size_t room =
            static_cast<size_t>(params_.interval_len) - buffer_.size();
        size_t take = n < room ? n : room;
        buffer_.insert(buffer_.end(), addrs, addrs + take);
        addrs += take;
        n -= take;
        if (buffer_.size() == params_.interval_len)
            processInterval();
    }
}

void
LossyEncoder::emitChunk(const IntervalSignature &sig)
{
    uint32_t id = static_cast<uint32_t>(stats_.chunks_created++);
    uint64_t length = buffer_.size();
    bool full = buffer_.size() == params_.interval_len;

    lossyMetrics().chunks.inc();
    if (chunk_fn_) {
        // Pooled path: the parallel writer times the compression
        // inside its task, where it actually runs.
        std::vector<uint64_t> payload = std::move(buffer_);
        buffer_ = std::vector<uint64_t>();
        buffer_.reserve(params_.interval_len);
        chunk_fn_(id, std::move(payload));
    } else {
        obs::StageTimer t(lossyMetrics().chunk_compress_us);
        auto sink = store_.createChunk(id);
        LosslessWriter writer(params_.chunk_params, *sink);
        writer.write(buffer_.data(), buffer_.size());
        writer.finish();
        sink->flush();
    }

    records_.push_back(
        {IntervalRecord::Kind::Chunk, id, length, ByteTranslation{}});

    // Register the chunk's signature; evict the oldest when full. A
    // partial final chunk is not a candidate for imitation, so it is
    // not registered.
    if (full) {
        if (table_.size() == params_.chunk_table)
            table_.pop_front();
        table_.push_back({id, sig});
    }
}

IntervalSignature
LossyEncoder::signatureOf(const uint64_t *addrs, size_t n)
{
    obs::StageTimer sig_t(lossyMetrics().signature_us);
    return IntervalSignature::from(computeHistograms(addrs, n));
}

void
LossyEncoder::writeInterval(std::vector<uint64_t> payload,
                            const IntervalSignature &sig)
{
    ATC_ASSERT(!finished_);
    ATC_CHECK(buffer_.empty(),
              "writeInterval cannot mix with buffered write() input");
    ATC_CHECK(!payload.empty() &&
                  payload.size() <= params_.interval_len,
              "writeInterval payload must be 1..interval_len addresses");
    stats_.addresses += payload.size();
    buffer_ = std::move(payload);
    applyInterval(sig);
}

void
LossyEncoder::processInterval()
{
    applyInterval(signatureOf(buffer_.data(), buffer_.size()));
}

void
LossyEncoder::applyInterval(const IntervalSignature &sig)
{
    LossyMetrics &m = lossyMetrics();

    // Only full intervals may imitate: a shorter final interval has a
    // different temporal extent and is always stored exactly.
    bool full = buffer_.size() == params_.interval_len;

    obs::StageTimer dec_t(m.decision_us);
    const TableEntry *best = nullptr;
    double best_d = 0.0;
    if (full) {
        for (const TableEntry &entry : table_) {
            double d = signatureDistance(entry.sig, sig);
            if (!best || d < best_d) {
                best = &entry;
                best_d = d;
            }
        }
    }

    if (best && best_d < params_.epsilon) {
        IntervalRecord rec;
        rec.kind = IntervalRecord::Kind::Imitate;
        rec.chunk_id = best->chunk_id;
        rec.length = buffer_.size();
        if (params_.translate)
            rec.trans = makeTranslation(best->sig, sig, params_.epsilon);
        dec_t.stop();
        records_.push_back(std::move(rec));
        ++stats_.imitated;
        m.imitations.inc();
    } else {
        dec_t.stop();
        emitChunk(sig);
    }

    ++stats_.intervals;
    buffer_.clear();
}

void
LossyEncoder::finish()
{
    if (finished_)
        return;
    if (!buffer_.empty())
        processInterval();
    finished_ = true;
}

std::vector<uint64_t>
decodeChunkPayload(const LosslessParams &params, ChunkStore &store,
                   uint32_t id)
{
    obs::StageTimer t(lossyMetrics().chunk_decode_us);
    auto src = store.openChunk(id);
    LosslessReader reader(params, *src);
    std::vector<uint64_t> addrs;
    uint64_t buf[4096];
    size_t got;
    while ((got = reader.read(buf, 4096)) != 0)
        addrs.insert(addrs.end(), buf, buf + got);
    return addrs;
}

LossyDecoder::LossyDecoder(const LossyParams &params, ChunkStore &store,
                           std::vector<IntervalRecord> records,
                           ChunkCache *cache)
    : params_(params), store_(store), owned_records_(std::move(records)),
      records_(&owned_records_),
      owned_cache_(cache == nullptr ? std::make_unique<ChunkCache>(
                                          params.decoder_cache_bytes)
                                    : nullptr),
      cache_(cache == nullptr ? owned_cache_.get() : cache)
{
}

LossyDecoder::LossyDecoder(const LossyParams &params, ChunkStore &store,
                           const std::vector<IntervalRecord> *records,
                           ChunkCache *cache)
    : params_(params), store_(store), records_(records),
      owned_cache_(cache == nullptr ? std::make_unique<ChunkCache>(
                                          params.decoder_cache_bytes)
                                    : nullptr),
      cache_(cache == nullptr ? owned_cache_.get() : cache)
{
    ATC_ASSERT(records_ != nullptr);
}

void
LossyDecoder::seekRecord(size_t record_idx, uint64_t skip)
{
    ATC_ASSERT(record_idx <= records_->size());
    ATC_ASSERT(skip == 0 || skip < (*records_)[record_idx].length);
    record_idx_ = record_idx;
    skip_ = skip;
    interval_.clear();
    pos_ = 0;
}

const std::vector<uint64_t> &
LossyDecoder::loadChunk(uint32_t id)
{
    // Consecutive intervals frequently imitate one chunk; serving the
    // pinned pointer skips even the cache's shard lock.
    if (current_chunk_ && current_id_ == id)
        return *current_chunk_;
    current_chunk_ = cache_->getOrLoad(id, [&] {
        return decodeChunkPayload(params_.chunk_params, store_, id);
    });
    current_id_ = id;
    return *current_chunk_;
}

bool
LossyDecoder::nextInterval()
{
    if (record_idx_ >= records_->size())
        return false;
    // The position (record_idx_, skip_) moves only once the chunk has
    // loaded and checked out, so a read retried after a failed load
    // regenerates the same interval at the same skip.
    const IntervalRecord &rec = (*records_)[record_idx_];
    const std::vector<uint64_t> &chunk = loadChunk(rec.chunk_id);
    ATC_CHECK(chunk.size() == rec.length,
              "interval record length mismatch");
    ++record_idx_;

    interval_.resize(rec.length);
    if (rec.kind == IntervalRecord::Kind::Chunk ||
        rec.trans.plane_mask == 0) {
        std::copy(chunk.begin(), chunk.end(), interval_.begin());
    } else {
        for (size_t i = 0; i < chunk.size(); ++i)
            interval_[i] = rec.trans.apply(chunk[i]);
    }
    pos_ = static_cast<size_t>(std::exchange(skip_, 0));
    return true;
}

size_t
LossyDecoder::read(uint64_t *out, size_t n)
{
    size_t got = 0;
    while (got < n) {
        if (pos_ == interval_.size()) {
            if (!nextInterval())
                break;
            continue; // an empty interval record is possible
        }
        size_t avail = interval_.size() - pos_;
        size_t take = (n - got) < avail ? (n - got) : avail;
        std::memcpy(out + got, interval_.data() + pos_,
                    take * sizeof(uint64_t));
        got += take;
        pos_ += take;
    }
    return got;
}

} // namespace atc::core

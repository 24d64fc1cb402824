#include "parallel/parallel_atc.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "atc/info.hpp"
#include "obs/metrics.hpp"

namespace atc::parallel {

namespace {

/** Addresses per batch pushed by the lossless prefetch worker. */
constexpr size_t kReadBatch = 64 * 1024;

size_t
resolveLookahead(const ParallelOptions &popt)
{
    if (popt.lookahead != 0)
        return popt.lookahead;
    return 2 * resolveThreads(popt.threads);
}

core::IndexOptions
indexOptions(const ParallelOptions &popt)
{
    core::IndexOptions iopt;
    iopt.cache_bytes = popt.cache_bytes;
    return iopt;
}

} // namespace

/** ByteSink adapter routing transform output into the block slicer. */
class LosslessBlockSink : public util::ByteSink
{
  public:
    explicit LosslessBlockSink(ParallelAtcWriter &writer)
        : writer_(writer)
    {}

    void
    write(const uint8_t *data, size_t n) override
    {
        writer_.onTransformedBytes(data, n);
    }

  private:
    ParallelAtcWriter &writer_;
};

ParallelAtcWriter::ParallelAtcWriter(core::ChunkStore &store,
                                     const core::AtcOptions &options,
                                     const ParallelOptions &popt)
    : codec_(core::writerCodec(options.pipeline)), store_(&store),
      options_(options), lookahead_(resolveLookahead(popt)),
      pool_(popt.threads, std::max<size_t>(lookahead_, 1))
{
    init();
}

ParallelAtcWriter::ParallelAtcWriter(const std::string &dir,
                                     const core::AtcOptions &options,
                                     const ParallelOptions &popt)
    : codec_(core::writerCodec(options.pipeline)),
      owned_store_(std::make_unique<core::DirectoryStore>(
          dir, core::containerSuffix(options.pipeline.codec))),
      store_(owned_store_.get()), options_(options),
      lookahead_(resolveLookahead(popt)),
      pool_(popt.threads, std::max<size_t>(lookahead_, 1))
{
    init();
}

void
ParallelAtcWriter::init()
{
    core::applyContainerVersion(options_.container_version,
                                options_.pipeline);
    options_.lossy.chunk_params = options_.pipeline;
    if (options_.mode == core::Mode::Lossless) {
        chunk_sink_ = store_->createChunk(0);
        block_size_ = codec_.blockOr(options_.pipeline.codec_block);
        block_buf_.reserve(block_size_);
        block_sink_ = std::make_unique<LosslessBlockSink>(*this);
        transform_ = std::make_unique<core::TransformEncoder>(
            options_.pipeline.transform, options_.pipeline.buffer_addrs,
            *block_sink_);
    } else {
        lossy_ = std::make_unique<core::LossyEncoder>(
            options_.lossy, *store_,
            [this](uint32_t id, std::vector<uint64_t> payload) {
                dispatchChunk(id, std::move(payload));
            });
    }
}

util::StatusOr<std::unique_ptr<ParallelAtcWriter>>
ParallelAtcWriter::open(core::ChunkStore &store,
                        const core::AtcOptions &options,
                        const ParallelOptions &popt)
{
    try {
        return std::make_unique<ParallelAtcWriter>(store, options, popt);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

util::StatusOr<std::unique_ptr<ParallelAtcWriter>>
ParallelAtcWriter::open(const std::string &dir,
                        const core::AtcOptions &options,
                        const ParallelOptions &popt)
{
    try {
        return std::make_unique<ParallelAtcWriter>(dir, options, popt);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

ParallelAtcWriter::~ParallelAtcWriter()
{
    // Abandoned without close(): drop the pending futures and let the
    // pool run out its queue. Workers never wait on the caller, so the
    // join in ~ThreadPool cannot deadlock.
}

void
ParallelAtcWriter::write(const uint64_t *vals, size_t n)
{
    ATC_ASSERT(!closed_);
    if (transform_)
        transform_->write(vals, n);
    else
        writeLossy(vals, n);
    count_ += n;
}

void
ParallelAtcWriter::writeLossy(const uint64_t *vals, size_t n)
{
    size_t interval = static_cast<size_t>(options_.lossy.interval_len);
    while (n > 0) {
        size_t room = interval - interval_buf_.size();
        size_t take = n < room ? n : room;
        interval_buf_.insert(interval_buf_.end(), vals, vals + take);
        vals += take;
        n -= take;
        if (interval_buf_.size() == interval)
            dispatchInterval();
    }
}

void
ParallelAtcWriter::dispatchInterval()
{
    auto payload = std::make_shared<std::vector<uint64_t>>(
        std::move(interval_buf_));
    interval_buf_ = std::vector<uint64_t>();
    interval_buf_.reserve(
        static_cast<size_t>(options_.lossy.interval_len));

    PendingInterval pending;
    pending.payload = payload;
    pending.sig = pool_.async([payload]() {
        return core::LossyEncoder::signatureOf(payload->data(),
                                               payload->size());
    });
    pending_sigs_.push_back(std::move(pending));
    drainSignatures(lookahead_);
}

void
ParallelAtcWriter::drainSignatures(size_t keep)
{
    while (pending_sigs_.size() > keep) {
        PendingInterval &front = pending_sigs_.front();
        core::IntervalSignature sig = front.sig.get();
        // The pooled task is resolved, so this thread owns the payload
        // again; writeInterval runs the serial decision stage and may
        // emit a chunk through dispatchChunk.
        lossy_->writeInterval(std::move(*front.payload), sig);
        pending_sigs_.pop_front();
    }
}

void
ParallelAtcWriter::onTransformedBytes(const uint8_t *data, size_t n)
{
    raw_crc_.update(data, n);
    while (n > 0) {
        size_t room = block_size_ - block_buf_.size();
        size_t take = n < room ? n : room;
        block_buf_.insert(block_buf_.end(), data, data + take);
        data += take;
        n -= take;
        if (block_buf_.size() == block_size_)
            dispatchBlock();
    }
}

void
ParallelAtcWriter::dispatchBlock()
{
    std::vector<uint8_t> raw = std::move(block_buf_);
    block_buf_ = std::vector<uint8_t>();
    block_buf_.reserve(block_size_);

    // The shared_ptr keeps the codec alive for the task even if the
    // writer is torn down before the pool drains. Frames go through
    // comp::encodeFrame — the same serialization the serial
    // StreamCompressor uses — so containers stay byte-identical.
    std::shared_ptr<const comp::Codec> codec = codec_.codec;
    comp::FrameFormat format = options_.pipeline.frame_format;
    pending_blocks_.push_back(
        pool_.async([codec, format, raw = std::move(raw)]() {
            comp::FrameIndexEntry entry;
            std::vector<uint8_t> frame = comp::encodeFrame(
                *codec, raw.data(), raw.size(), format, &entry);
            return EncodedFrame{std::move(frame), entry};
        }));
    drainBlocks(lookahead_);
}

void
ParallelAtcWriter::drainBlocks(size_t keep)
{
    while (pending_blocks_.size() > keep) {
        EncodedFrame frame = pending_blocks_.front().get();
        pending_blocks_.pop_front();
        chunk_sink_->write(frame.first.data(), frame.first.size());
        if (options_.pipeline.frame_format == comp::FrameFormat::Seekable)
            frame_index_.push_back(frame.second);
    }
}

void
ParallelAtcWriter::dispatchChunk(uint32_t id,
                                 std::vector<uint64_t> payload)
{
    pending_chunks_.emplace_back(
        id, pool_.async([params = options_.lossy.chunk_params,
                         payload = std::move(payload)]() {
            // Same stage counter the serial emitChunk path uses, so
            // lossy.chunk_compress_us is pool-vs-caller comparable
            // against lossy.signature_us/decision_us.
            static obs::Counter &chunk_us =
                obs::Registry::global().counter(
                    "lossy.chunk_compress_us");
            obs::StageTimer t(chunk_us);
            std::vector<uint8_t> bytes;
            util::VectorSink sink(bytes);
            core::LosslessWriter writer(params, sink);
            writer.write(payload.data(), payload.size());
            writer.finish();
            return bytes;
        }));
    drainChunks(lookahead_);
}

void
ParallelAtcWriter::drainChunks(size_t keep)
{
    // Chunk ids are dense and dispatched in increasing order, so
    // resolving the deque front-first reassembles the container in
    // exactly the serial path's order.
    while (pending_chunks_.size() > keep) {
        auto &[id, future] = pending_chunks_.front();
        std::vector<uint8_t> bytes = future.get();
        auto sink = store_->createChunk(id);
        sink->write(bytes.data(), bytes.size());
        sink->flush();
        pending_chunks_.pop_front();
    }
}

void
ParallelAtcWriter::close()
{
    if (closed_)
        return;
    if (transform_) {
        transform_->finish();
        if (!block_buf_.empty())
            dispatchBlock();
        drainBlocks(0);
        // Stream terminator, frame index (v3) and CRC trailer (v2+),
        // exactly as the serial LosslessWriter emits them.
        comp::writeStreamEnd(*chunk_sink_,
                             options_.pipeline.frame_format,
                             frame_index_);
        if (options_.pipeline.crc_trailer)
            util::writeLE<uint32_t>(*chunk_sink_, raw_crc_.value());
        chunk_sink_->flush();
        core::writeContainerInfo(*store_, codec_,
                                 options_.container_version,
                                 options_.mode, options_.pipeline,
                                 count_, nullptr, 0, nullptr);
    } else {
        // The trailing partial interval (if any) goes through the same
        // pooled-signature path; draining in order first keeps the
        // record sequence identical to the serial encoder's.
        if (!interval_buf_.empty())
            dispatchInterval();
        drainSignatures(0);
        lossy_->finish();
        drainChunks(0);
        core::writeContainerInfo(*store_, codec_,
                                 options_.container_version,
                                 options_.mode, options_.pipeline,
                                 count_, &options_.lossy,
                                 lossy_->stats().chunks_created,
                                 &lossy_->records());
    }
    closed_ = true;
}

util::Status
ParallelAtcWriter::tryClose()
{
    try {
        close();
        return util::Status();
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

const core::LossyStats &
ParallelAtcWriter::lossyStats() const
{
    ATC_CHECK(lossy_ != nullptr, "lossyStats requires lossy mode");
    return lossy_->stats();
}

ParallelAtcReader::ParallelAtcReader(core::ChunkStore &store,
                                     const ParallelOptions &popt)
    : index_(core::AtcIndex::openOrThrow(store, indexOptions(popt))),
      store_(&store), lookahead_(resolveLookahead(popt)),
      pool_(std::make_unique<ThreadPool>(
          popt.threads, std::max<size_t>(lookahead_, 1)))
{
    start();
}

ParallelAtcReader::ParallelAtcReader(const std::string &dir,
                                     const ParallelOptions &popt)
    : index_(core::AtcIndex::openOrThrow(
          std::make_unique<core::DirectoryStore>(
              dir, core::detectContainerSuffix(dir)),
          indexOptions(popt))),
      store_(&index_->store()), lookahead_(resolveLookahead(popt)),
      pool_(std::make_unique<ThreadPool>(
          popt.threads, std::max<size_t>(lookahead_, 1)))
{
    start();
}

std::unique_ptr<core::AtcCursor>
ParallelAtcReader::cursor() const
{
    core::CursorOptions copt;
    copt.pool = pool_.get();
    return index_->cursor(copt);
}

util::StatusOr<std::unique_ptr<ParallelAtcReader>>
ParallelAtcReader::open(core::ChunkStore &store,
                        const ParallelOptions &popt)
{
    try {
        return std::make_unique<ParallelAtcReader>(store, popt);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

util::StatusOr<std::unique_ptr<ParallelAtcReader>>
ParallelAtcReader::open(const std::string &dir,
                        const ParallelOptions &popt)
{
    try {
        return std::make_unique<ParallelAtcReader>(dir, popt);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

ParallelAtcReader::~ParallelAtcReader()
{
    // Unblock a prefetch worker stuck in push() before joining: either
    // side closing the channel is enough to end the stream. The v3
    // scanner joins before the pool so its pending async() submissions
    // resolve while workers are still alive.
    if (batches_)
        batches_->close();
    if (frames_)
        frames_->close();
    if (scanner_.joinable())
        scanner_.join();
    pool_.reset();
}

/**
 * ByteSource serving the decoded frames of a seekable stream in scan
 * order: pops one future at a time from the reader's bounded channel,
 * accumulating the CRC of the reassembled raw stream. Decode-worker
 * exceptions rethrow here (on the consuming thread) via future::get;
 * scanner-side errors rethrow through the reader's scan_error_ once
 * the channel drains.
 */
class DecodedFrameSource : public util::ByteSource
{
  public:
    explicit DecodedFrameSource(ParallelAtcReader &reader)
        : reader_(reader)
    {}

    size_t
    read(uint8_t *data, size_t n) override
    {
        size_t got = 0;
        while (got < n) {
            if (pos_ == current_.size()) {
                if (done_)
                    break;
                std::future<std::vector<uint8_t>> next;
                if (!reader_.frames_->pop(next)) {
                    done_ = true;
                    if (reader_.scan_error_)
                        std::rethrow_exception(reader_.scan_error_);
                    break;
                }
                current_ = next.get(); // rethrows decode-worker errors
                crc_.update(current_.data(), current_.size());
                pos_ = 0;
                continue;
            }
            size_t avail = current_.size() - pos_;
            size_t take = (n - got) < avail ? (n - got) : avail;
            std::memcpy(data + got, current_.data() + pos_, take);
            got += take;
            pos_ += take;
        }
        return got;
    }

    /** @return CRC-32 of the reassembled raw stream so far. */
    uint32_t crc() const { return crc_.value(); }

  private:
    ParallelAtcReader &reader_;
    std::vector<uint8_t> current_;
    size_t pos_ = 0;
    util::Crc32 crc_;
    bool done_ = false;
};

void
ParallelAtcReader::startSeekableLossless()
{
    frames_ = std::make_unique<
        Channel<std::future<std::vector<uint8_t>>>>(
        std::max<size_t>(lookahead_, 1));
    auto source = std::make_unique<DecodedFrameSource>(*this);
    transform_dec_ = std::make_unique<core::TransformDecoder>(
        info().pipeline.transform, *source, info().pipeline.buffer_addrs);
    frame_source_ = std::move(source);
    // The index captured (and validated) the end-of-stream frame
    // index and CRC trailer at open, so the scanner never has to read
    // past the last frame.
    const comp::StreamLayout *layout = index_->chunkLayout(0);
    if (layout != nullptr && layout->has_crc)
        stored_crc_ = layout->crc;
    // A dedicated scanner thread (not a pool worker): it blocks on
    // decode-task futures and channel pushes, so parking it in the
    // pool could starve the decoders it feeds.
    scanner_ = std::thread([this] { scanFrames(); });
}

void
ParallelAtcReader::scanFrames()
{
    try {
        // Thin driver over the shared index: walk the scanned layout,
        // re-reading each header only as a cheap cross-check that the
        // stream still matches the snapshot.
        const comp::StreamLayout &layout = *index_->chunkLayout(0);
        auto src = store_->openChunk(0);
        for (size_t f = 0; f < layout.frames.size(); ++f) {
            // Zero-copy on mapped chunks: the payload borrows the
            // mapping, which the FramePayload's keepalive pins past
            // this scanner's source (the futures outlive it, crossing
            // the channel to the consumer thread). Memory-store
            // payloads borrow the store, which the documented reader
            // contract keeps alive and immutable.
            comp::FramePayload payload =
                comp::fetchIndexedFramePayload(*src, layout, f);

            std::shared_ptr<const comp::Codec> c = index_->codec().codec;
            size_t raw_size =
                static_cast<size_t>(layout.frames[f].raw_size);
            auto decoded =
                pool_->async([c, raw_size,
                              payload = std::move(payload)]() {
                    std::vector<uint8_t> raw;
                    comp::decodeSeekableFrame(*c, payload.data,
                                              payload.size,
                                              raw_size, raw);
                    return raw;
                });
            if (!frames_->push(std::move(decoded)))
                return; // consumer abandoned the stream
        }
    } catch (...) {
        // Published before close(): the channel mutex orders it ahead
        // of the consumer observing end-of-channel.
        scan_error_ = std::current_exception();
    }
    frames_->close();
}

void
ParallelAtcReader::start()
{
    if (info().mode == core::Mode::Lossless) {
        if (info().pipeline.frame_format == comp::FrameFormat::Seekable) {
            startSeekableLossless();
            return;
        }
        batches_ = std::make_unique<Channel<std::vector<uint64_t>>>(
            std::max<size_t>(lookahead_, 1));
        producer_ = pool_->async([this] {
            try {
                auto src = store_->openChunk(0);
                core::LosslessReader reader(info().pipeline, *src);
                std::vector<uint64_t> buf(kReadBatch);
                for (;;) {
                    size_t got = reader.read(buf.data(), buf.size());
                    if (got == 0)
                        break;
                    std::vector<uint64_t> batch(buf.begin(),
                                                buf.begin() + got);
                    if (!batches_->push(std::move(batch)))
                        return; // consumer abandoned the stream
                }
            } catch (...) {
                // Wake the consumer before surfacing the error via the
                // producer future.
                batches_->close();
                throw;
            }
            batches_->close();
        });
        return;
    }
    cache_cap_ = std::max<size_t>(8, lookahead_ + 1);
    scheduleAhead();
}

void
ParallelAtcReader::scheduleAhead()
{
    size_t end = std::min(record_idx_ + lookahead_ + 1,
                          info().records.size());
    for (size_t i = record_idx_; i < end; ++i) {
        uint32_t id = info().records[i].chunk_id;
        auto it = decodes_.find(id);
        if (it == decodes_.end()) {
            // Consult the shared decoded-record cache first (a cursor
            // may have warmed it); the sequential pass never populates
            // it, so a full scan cannot churn the cursors' working set.
            if (core::BlockCache<uint64_t>::Ptr hit =
                    index_->cache().get(id)) {
                // ChunkPtr and the cache's Ptr are the same type, so
                // the immutable block is shared, never copied.
                std::promise<ChunkPtr> ready;
                ready.set_value(std::move(hit));
                decodes_.emplace(id, ready.get_future().share());
            } else {
                decodes_.emplace(
                    id, pool_->async([this, id]() -> ChunkPtr {
                                return std::make_shared<
                                    std::vector<uint64_t>>(
                                    core::decodeChunkPayload(
                                        info().pipeline, *store_, id));
                            }).share());
            }
        }
        // Keep everything in the window at the recent end of the LRU so
        // eviction only ever hits chunks outside it.
        lru_.remove(id);
        lru_.push_front(id);
    }
    while (decodes_.size() > cache_cap_ && !lru_.empty()) {
        uint32_t victim = lru_.back();
        lru_.pop_back();
        decodes_.erase(victim);
    }
}

ParallelAtcReader::ChunkPtr
ParallelAtcReader::loadChunk(uint32_t id)
{
    auto it = decodes_.find(id);
    ATC_ASSERT(it != decodes_.end()); // scheduleAhead covers the window
    return it->second.get();          // rethrows worker-side errors
}

bool
ParallelAtcReader::nextInterval()
{
    if (record_idx_ >= info().records.size())
        return false;
    scheduleAhead();
    const core::IntervalRecord &rec = info().records[record_idx_++];
    ChunkPtr chunk = loadChunk(rec.chunk_id);
    ATC_CHECK(chunk->size() == rec.length,
              "interval record length mismatch");

    interval_.resize(rec.length);
    if (rec.kind == core::IntervalRecord::Kind::Chunk ||
        rec.trans.plane_mask == 0) {
        std::copy(chunk->begin(), chunk->end(), interval_.begin());
    } else {
        for (size_t i = 0; i < chunk->size(); ++i)
            interval_[i] = rec.trans.apply((*chunk)[i]);
    }
    pos_ = 0;
    return true;
}

size_t
ParallelAtcReader::readSeekableLossless(uint64_t *out, size_t n)
{
    // The caller thread runs only the cheap inverse transform; frame
    // decode happens in the pool, ordered by the scan sequence.
    size_t got = transform_dec_->read(out, n);
    if (got == 0 && n > 0 && !stream_verified_) {
        uint8_t extra;
        ATC_CHECK(frame_source_->read(&extra, 1) == 0,
                  "trailing data after the transform terminator");
        if (info().pipeline.crc_trailer) {
            auto &fs = static_cast<DecodedFrameSource &>(*frame_source_);
            ATC_CHECK(fs.crc() == stored_crc_,
                      "chunk payload CRC mismatch (corrupt container)");
        }
        stream_verified_ = true;
    }
    return got;
}

size_t
ParallelAtcReader::readLossless(uint64_t *out, size_t n)
{
    if (transform_dec_)
        return readSeekableLossless(out, n);
    size_t got = 0;
    while (got < n) {
        if (batch_pos_ == batch_.size()) {
            if (drained_)
                break;
            if (!batches_->pop(batch_)) {
                drained_ = true;
                batch_.clear();
                batch_pos_ = 0;
                if (producer_.valid())
                    producer_.get(); // surface decode errors
                break;
            }
            batch_pos_ = 0;
            continue;
        }
        size_t avail = batch_.size() - batch_pos_;
        size_t take = (n - got) < avail ? (n - got) : avail;
        std::copy(batch_.begin() +
                      static_cast<std::ptrdiff_t>(batch_pos_),
                  batch_.begin() +
                      static_cast<std::ptrdiff_t>(batch_pos_ + take),
                  out + got);
        got += take;
        batch_pos_ += take;
    }
    return got;
}

size_t
ParallelAtcReader::readLossy(uint64_t *out, size_t n)
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
        std::copy(interval_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  interval_.begin() +
                      static_cast<std::ptrdiff_t>(pos_ + take),
                  out + got);
        got += take;
        pos_ += take;
    }
    return got;
}

size_t
ParallelAtcReader::read(uint64_t *out, size_t n)
{
    size_t got = info().mode == core::Mode::Lossless
                     ? readLossless(out, n)
                     : readLossy(out, n);
    delivered_ += got;
    if (got == 0 && n > 0)
        ATC_CHECK(delivered_ == info().count,
                  "container truncated: INFO records " +
                      std::to_string(info().count) +
                      " values but only " + std::to_string(delivered_) +
                      " could be decoded");
    return got;
}

util::StatusOr<size_t>
ParallelAtcReader::tryRead(uint64_t *out, size_t n)
{
    try {
        return read(out, n);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

} // namespace atc::parallel

/**
 * @file
 * Parallel chunked compression engine.
 *
 * ParallelAtcWriter / ParallelAtcReader are drop-in TraceSink /
 * TraceSource stages producing and consuming the exact container
 * format of the serial AtcWriter/AtcReader — for any thread count the
 * emitted bytes (INFO preamble and every chunk file) are identical to
 * the serial path, so containers stay interchangeable.
 *
 * Writer: the caller thread runs the cheap, order-dependent work (the
 * bytesort transform in lossless mode; interval signatures and the
 * imitation decision in lossy mode) and dispatches the dominant cost —
 * per-block codec compression (BWT/suffix array) or whole-chunk
 * compression — to a fixed thread pool. Results come back as futures
 * kept in submission order and are reassembled in order into the
 * container, with a bounded in-flight window for backpressure.
 *
 * Reader: opens a shared core::AtcIndex snapshot (INFO + per-chunk v3
 * frame layouts) and drives everything off it. In lossy mode upcoming
 * chunks are decoded ahead concurrently (distinct chunks only;
 * imitated intervals reuse the decoded chunk). In lossless mode the
 * path depends on the container version: v3's seekable framing gets
 * true block-parallel decode — a scanner thread walks the indexed
 * frames and dispatches compressed payloads to the pool, with ordered
 * reassembly and the CRC trailer verified across the reassembled
 * stream — while v1/v2 fall back to a single background decoder
 * pipelining batches through a bounded channel. cursor() mints
 * seekable random-access cursors whose readRange() fans frame decodes
 * out on the same pool. Abandoning either side mid-stream never
 * deadlocks: destruction closes the channels, which unblocks every
 * worker.
 */

#ifndef ATC_PARALLEL_PARALLEL_ATC_HPP_
#define ATC_PARALLEL_PARALLEL_ATC_HPP_

#include <deque>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "atc/atc.hpp"
#include "parallel/channel.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/pipeline.hpp"
#include "util/status.hpp"

namespace atc::parallel {

/** Knobs of the parallel drivers. */
struct ParallelOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    size_t threads = 0;
    /** In-flight blocks/chunks ahead of the reassembly point;
     *  0 = 2 * threads. Bounds memory and provides backpressure. */
    size_t lookahead = 0;
    /** Budget of the reader's shared decoded-record cache (forwarded
     *  to core::IndexOptions::cache_bytes; 0 disables it). The
     *  sequential decode never populates it — a full scan must not
     *  churn the seek working set (the lossy pass consults it for
     *  chunk hits) — while cursors minted via cursor() both consult
     *  and populate. */
    size_t cache_bytes = core::kDefaultDecodedCacheBytes;
};

/** Compressing side; byte-identical to AtcWriter for any thread count. */
class ParallelAtcWriter : public trace::TraceSink
{
  public:
    /**
     * Write into an existing store. The store is only touched from the
     * caller thread (ordered reassembly), so any ChunkStore works.
     * @throws util::Error on a malformed or unknown codec spec, or a
     *         codec block above comp::kMaxFrameRawSize
     */
    ParallelAtcWriter(core::ChunkStore &store,
                      const core::AtcOptions &options,
                      const ParallelOptions &popt = {});

    /** Write into a directory container (created if needed). */
    ParallelAtcWriter(const std::string &dir,
                      const core::AtcOptions &options,
                      const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper. */
    static util::StatusOr<std::unique_ptr<ParallelAtcWriter>> open(
        core::ChunkStore &store, const core::AtcOptions &options,
        const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper (directory layout). */
    static util::StatusOr<std::unique_ptr<ParallelAtcWriter>> open(
        const std::string &dir, const core::AtcOptions &options,
        const ParallelOptions &popt = {});

    /** Abandons cleanly (no deadlock) when close() was never called. */
    ~ParallelAtcWriter() override;

    ParallelAtcWriter(const ParallelAtcWriter &) = delete;
    ParallelAtcWriter &operator=(const ParallelAtcWriter &) = delete;

    /** Compress a batch of values — the primary entry point. */
    void write(const uint64_t *vals, size_t n) override;

    /** Compress one 64-bit value. */
    void code(uint64_t value) { write(&value, 1); }

    /** Drain the pool, reassemble, and write INFO. */
    void close() override;

    /** close(), reporting failures as a Status instead of throwing. */
    util::Status tryClose();

    /** @return values coded so far. */
    uint64_t count() const { return count_; }

    /** @return worker threads in the pool. */
    size_t threads() const { return pool_.size(); }

    /** @return lossy counters; valid after close() in lossy mode. */
    const core::LossyStats &lossyStats() const;

  private:
    friend class LosslessBlockSink;

    void init();
    void onTransformedBytes(const uint8_t *data, size_t n);
    void dispatchBlock();
    void dispatchChunk(uint32_t id, std::vector<uint64_t> payload);
    void drainBlocks(size_t keep);
    void drainChunks(size_t keep);
    void writeLossy(const uint64_t *vals, size_t n);
    void dispatchInterval();
    void drainSignatures(size_t keep);

    // First, so a rejected codec fails before the store exists (and,
    // for a directory, before it is created).
    comp::ConfiguredCodec codec_;
    std::unique_ptr<core::ChunkStore> owned_store_;
    core::ChunkStore *store_;
    core::AtcOptions options_;
    size_t lookahead_;
    ThreadPool pool_;
    uint64_t count_ = 0;
    bool closed_ = false;

    // Lossless mode: transform on the caller thread, codec blocks in
    // the pool, frames reassembled in submission order. Each pooled
    // task returns the encoded frame plus its index entry so the
    // writer can emit the v3 frame index at close.
    using EncodedFrame =
        std::pair<std::vector<uint8_t>, comp::FrameIndexEntry>;
    std::unique_ptr<util::ByteSink> chunk_sink_;
    std::unique_ptr<util::ByteSink> block_sink_; // feeds onTransformedBytes
    std::unique_ptr<core::TransformEncoder> transform_;
    size_t block_size_ = 0;
    std::vector<uint8_t> block_buf_;
    util::Crc32 raw_crc_;
    std::deque<std::future<EncodedFrame>> pending_blocks_;
    std::vector<comp::FrameIndexEntry> frame_index_;

    // Lossy mode: the caller thread slices input into interval-sized
    // payloads and pools the signature computation (pure, per-payload);
    // signatures drain in submission order into the encoder's
    // order-dependent decision stage (writeInterval), so records and
    // chunks come out byte-identical to the serial path. Chunk
    // compression pools through the ChunkFn seam as before. Tasks own
    // their payload via shared_ptr, so an abandoned writer (queue
    // outliving the deque) never leaves a worker on freed memory.
    struct PendingInterval
    {
        std::shared_ptr<std::vector<uint64_t>> payload;
        std::future<core::IntervalSignature> sig;
    };
    std::unique_ptr<core::LossyEncoder> lossy_;
    std::vector<uint64_t> interval_buf_;
    std::deque<PendingInterval> pending_sigs_;
    std::deque<std::pair<uint32_t, std::future<std::vector<uint8_t>>>>
        pending_chunks_;
};

/** Decompressing side with concurrent chunk prefetch. */
class ParallelAtcReader : public trace::TraceSource
{
  public:
    /**
     * Read from an existing store. The store must stay immutable while
     * the reader lives; chunks are opened from worker threads.
     * @throws util::Error on missing/corrupt INFO
     */
    explicit ParallelAtcReader(core::ChunkStore &store,
                               const ParallelOptions &popt = {});

    /** Read from a directory container (suffix auto-detected). */
    explicit ParallelAtcReader(const std::string &dir,
                               const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper. */
    static util::StatusOr<std::unique_ptr<ParallelAtcReader>> open(
        core::ChunkStore &store, const ParallelOptions &popt = {});

    /** Non-throwing constructor wrapper (directory, auto-detect). */
    static util::StatusOr<std::unique_ptr<ParallelAtcReader>> open(
        const std::string &dir, const ParallelOptions &popt = {});

    /** Abandons cleanly (no deadlock) mid-stream. */
    ~ParallelAtcReader() override;

    ParallelAtcReader(const ParallelAtcReader &) = delete;
    ParallelAtcReader &operator=(const ParallelAtcReader &) = delete;

    /**
     * Decompress up to @p n values — the primary entry point.
     * @return values produced; 0 means end of trace
     * @throws util::Error on truncated/corrupt chunk data
     */
    size_t read(uint64_t *out, size_t n) override;

    /** read(), reporting corruption as a Status instead of throwing. */
    util::StatusOr<size_t> tryRead(uint64_t *out, size_t n);

    /** @return the container's compression mode. */
    core::Mode mode() const { return index_->mode(); }

    /** @return the codec spec recorded in INFO. */
    const std::string &codecSpec() const
    {
        return index_->info().codec_spec;
    }

    /** @return total values in the trace, from INFO. */
    uint64_t count() const { return index_->size(); }

    /** @return the container format version recorded in INFO. */
    uint8_t containerVersion() const { return index_->version(); }

    /** @return the shared seek-metadata snapshot of this container. */
    const std::shared_ptr<const core::AtcIndex> &index() const
    {
        return index_;
    }

    /**
     * Mint an independent seekable cursor wired to this reader's
     * thread pool, so readRange() decodes the covering frames in
     * parallel. The cursor shares the immutable index but must not
     * outlive this reader (it borrows the pool).
     */
    std::unique_ptr<core::AtcCursor> cursor() const;

  private:
    friend class DecodedFrameSource;

    using ChunkPtr = std::shared_ptr<const std::vector<uint64_t>>;

    void start();
    void startSeekableLossless();
    void scanFrames();
    void scheduleAhead();
    ChunkPtr loadChunk(uint32_t id);
    bool nextInterval();
    size_t readLossless(uint64_t *out, size_t n);
    size_t readSeekableLossless(uint64_t *out, size_t n);
    size_t readLossy(uint64_t *out, size_t n);

    /** Shared seek-metadata snapshot; also the scanner's frame map.
     *  Owns the store for directory-opened readers, so index() and
     *  cursors survive the reader itself. */
    std::shared_ptr<const core::AtcIndex> index_;
    core::ChunkStore *store_;
    size_t lookahead_;
    uint64_t delivered_ = 0;

    /** @return the parsed INFO held by the index. */
    const core::ContainerInfo &info() const { return index_->info(); }

    // Lossless mode, legacy framing (v1/v2): one background decoder
    // feeding a bounded channel — frames cannot be located without
    // decoding, so the stream is pipeline-parallel only.
    std::unique_ptr<Channel<std::vector<uint64_t>>> batches_;
    std::future<void> producer_;
    std::vector<uint64_t> batch_;
    size_t batch_pos_ = 0;
    bool drained_ = false;

    // Lossless mode, seekable framing (v3): a scanner thread walks
    // frame headers (compressed extents make that possible without
    // decoding) and dispatches each compressed frame to the pool; the
    // caller thread reassembles decoded frames in scan order through
    // the bounded channel, runs the cheap inverse transform, and
    // verifies the CRC trailer across the reassembled stream.
    std::unique_ptr<Channel<std::future<std::vector<uint8_t>>>> frames_;
    std::thread scanner_;
    std::exception_ptr scan_error_;
    uint32_t stored_crc_ = 0;
    std::unique_ptr<util::ByteSource> frame_source_;
    std::unique_ptr<core::TransformDecoder> transform_dec_;
    bool stream_verified_ = false;

    // Lossy mode: concurrent decode of upcoming distinct chunks.
    std::unordered_map<uint32_t, std::shared_future<ChunkPtr>> decodes_;
    std::list<uint32_t> lru_; // front = most recent
    size_t cache_cap_ = 0;
    size_t record_idx_ = 0;
    std::vector<uint64_t> interval_;
    size_t pos_ = 0;

    // Joined (after channel close) before the members above die.
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace atc::parallel

#endif // ATC_PARALLEL_PARALLEL_ATC_HPP_

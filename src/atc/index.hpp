/**
 * @file
 * Random-access read API over ATC containers.
 *
 * AtcIndex is an immutable, open-once snapshot of everything needed to
 * locate a record without decoding the records before it: the parsed
 * INFO stream, every chunk's v3 frame index (scanned from the seekable
 * frame headers without touching payloads, then validated against the
 * stored end-of-stream index), and — in lossy mode — the cumulative
 * record offsets of the interval trace. One AtcIndex may be shared by
 * any number of threads; it never mutates after open().
 *
 * AtcCursor is the trace::TraceCursor implementation minted from an
 * AtcIndex. Cursors are cheap: each holds only its own decode state,
 * so a consumer wanting several independent read positions opens
 * several cursors. seek() on a lossless v3 container lands inside the
 * containing transform buffer — the smallest unit the inverse bytesort
 * can decode — fetched through the index's shared decoded-record cache
 * (a hit is a copy; a miss decodes only the frames covering it); on
 * lossy containers it lands on the containing interval boundary
 * (the paper's lossy semantics make positions inside an imitated
 * interval approximations anyway — tell() reports where the cursor
 * actually landed). v1/v2 containers carry no frame index, so their
 * cursors fall back to decode-and-skip behind the same API.
 *
 * Thread-safety rules:
 *  - AtcIndex: immutable, share freely (its ChunkStore must stay
 *    readable and unmodified for the index's lifetime, and openChunk()
 *    must be callable concurrently — DirectoryStore and MemoryStore
 *    both qualify). The attached decoded-record cache (BlockCache) is
 *    internally synchronized mutable state and shared along with the
 *    index; see IndexOptions::cache_bytes.
 *  - AtcCursor: confined to one thread at a time; concurrent use of
 *    *different* cursors over one AtcIndex is supported and tested.
 *  - A cursor keeps its AtcIndex alive (shared ownership) but only
 *    borrows the optional thread pool — the pool must outlive the
 *    cursor.
 */

#ifndef ATC_ATC_INDEX_HPP_
#define ATC_ATC_INDEX_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atc/block_cache.hpp"
#include "atc/container.hpp"
#include "atc/info.hpp"
#include "atc/lossless.hpp"
#include "atc/lossy.hpp"
#include "compress/stream.hpp"
#include "trace/pipeline.hpp"
#include "util/status.hpp"

namespace atc::parallel {
class ThreadPool;
} // namespace atc::parallel

namespace atc::core {

class AtcCursor;

/** Knobs of a cursor minted by AtcIndex::cursor(). */
struct CursorOptions
{
    /** Borrowed pool; when set, the cache-missing frames of a lossless
     *  v3 buffer decode (seek, stream or range) and the covering chunks
     *  of a lossy readRange() are decoded on it. Must outlive the
     *  cursor. */
    parallel::ThreadPool *pool = nullptr;
};

/** Knobs of the snapshot built by AtcIndex::open(). */
struct IndexOptions
{
    /** Budget of the shared decoded-record cache, in bytes. The cache
     *  holds decoded records per decode unit: a lossless v3 transform
     *  buffer keyed by buffer number, or a lossy chunk keyed by chunk
     *  id. Every cursor minted from the index reads through the same
     *  cache, so a seek or range over resident units is a copy — no
     *  codec decode, no inverse transform. A budget of 0 retains
     *  nothing but still coalesces concurrent decodes: cursors missing
     *  on one unit at once share a single decode of it. */
    size_t cache_bytes = kDefaultDecodedCacheBytes;
};

/** Immutable, shareable snapshot of a container's seek metadata. */
class AtcIndex : public std::enable_shared_from_this<AtcIndex>
{
  public:
    /**
     * Open over an existing store (borrowed; must outlive the index
     * and stay unmodified). Reads INFO and, on v3 containers, scans
     * and validates every chunk's frame index — payloads are skipped,
     * never decoded, so open cost is I/O over headers only.
     */
    static util::StatusOr<std::shared_ptr<const AtcIndex>> open(
        ChunkStore &store, const IndexOptions &iopt = {});

    /** Open a directory container, auto-detecting the suffix. */
    static util::StatusOr<std::shared_ptr<const AtcIndex>> open(
        const std::string &dir, const IndexOptions &iopt = {});

    /** Open a directory container with an explicit suffix. */
    static util::StatusOr<std::shared_ptr<const AtcIndex>> open(
        const std::string &dir, const std::string &suffix,
        const IndexOptions &iopt = {});

    /** Throwing variant of open() for internal callers. */
    static std::shared_ptr<const AtcIndex> openOrThrow(
        ChunkStore &store, const IndexOptions &iopt = {});

    /**
     * Throwing open() that takes ownership of @p store, making the
     * snapshot fully self-contained — the directory-opened readers use
     * this so their index() survives the reader itself.
     */
    static std::shared_ptr<const AtcIndex> openOrThrow(
        std::unique_ptr<ChunkStore> store, const IndexOptions &iopt = {});

    /**
     * Mint a new cursor positioned at record 0. Any number of cursors
     * may coexist; each is independent.
     */
    std::unique_ptr<AtcCursor> cursor(
        const CursorOptions &copt = {}) const;

    /** @return the parsed INFO (records included in lossy mode). */
    const ContainerInfo &info() const { return info_; }

    /** @return total records in the trace. */
    uint64_t size() const { return info_.count; }

    /** @return the container's compression mode. */
    Mode mode() const { return info_.mode; }

    /** @return the container format version. */
    uint8_t version() const { return info_.version; }

    /**
     * @return true when seeks resolve through the v3 frame index
     * (lossless) or the interval trace (lossy) without decoding
     * skipped data; false means cursors decode-and-skip (v1/v2
     * lossless).
     */
    bool nativeSeek() const;

    /** @return number of chunks in the container. */
    uint32_t chunkCount() const;

    /**
     * @return chunk @p id's scanned frame layout, or nullptr when the
     * container predates seekable framing (v1/v2).
     */
    const comp::StreamLayout *chunkLayout(uint32_t id) const;

    /** @return cumulative record start offsets of the interval trace
     *  (records().size() + 1 entries); empty in lossless mode. */
    const std::vector<uint64_t> &recordStarts() const
    {
        return record_starts_;
    }

    /** @return the backing store. */
    ChunkStore &store() const { return *store_; }

    /** @return the configured codec shared by every reader over this
     *  container (codecs are stateless and thread-safe). */
    const comp::ConfiguredCodec &codec() const { return codec_; }

    /**
     * @return the shared decoded-record cache (see
     * IndexOptions::cache_bytes): internally synchronized mutable state
     * attached to the otherwise-immutable snapshot, so sharing the
     * index across threads shares it too. `atcinfo` and the serving
     * daemon's STAT op report its stats().
     */
    BlockCache<uint64_t> &cache() const { return cache_; }

    /**
     * The last codec frame a lossless buffer decode ran, kept by a
     * streaming caller: when the next buffer starts inside it, the
     * next decode reuses it instead of decoding that frame again.
     */
    struct FrameCarry
    {
        size_t frame = SIZE_MAX;
        std::vector<uint8_t> bytes;
    };

    /**
     * @return the decoded records of lossless v3 transform buffer @p b
     * through the shared cache. A miss fetches the frames covering the
     * buffer (zero-copy on mapped chunks, decoded on @p pool when one
     * is given), checks the buffer's declared length against
     * bufferLen(@p b), runs the inverse transform and publishes the
     * result; a miss on a buffer another thread is decoding waits for
     * that decode instead. @p carry, when given, supplies and receives
     * the boundary frame shared with the neighbouring buffer.
     * @throws util::Error on corrupt or truncated data
     */
    BlockCache<uint64_t>::Ptr
    decodedBuffer(uint64_t b, parallel::ThreadPool *pool,
                  FrameCarry *carry = nullptr) const
    {
        return decodedBuffers(b, b, pool, carry).front();
    }

    /**
     * decodedBuffer() over buffers [@p b0, @p b1]: the cache-missing
     * buffers are decoded in runs sharing one pass over their covering
     * frames, so no frame is decoded twice.
     */
    std::vector<BlockCache<uint64_t>::Ptr>
    decodedBuffers(uint64_t b0, uint64_t b1, parallel::ThreadPool *pool,
                   FrameCarry *carry = nullptr) const;

    // ---- lossless transform-buffer geometry (derived from INFO) ----
    // The raw (pre-codec) stream is a sequence of self-contained
    // transform buffers — varint(n) + 8n bytes each — of exactly
    // buffer_addrs records apiece (the final one possibly shorter), so
    // the raw byte offset of any buffer is computable without I/O.

    /** @return the transform buffer containing record @p rec. */
    uint64_t bufferOf(uint64_t rec) const;

    /** @return records in transform buffer @p b. */
    uint64_t bufferLen(uint64_t b) const;

    /** @return raw-stream byte offset where buffer @p b starts. */
    uint64_t bufferRawOffset(uint64_t b) const;

    AtcIndex(const AtcIndex &) = delete;
    AtcIndex &operator=(const AtcIndex &) = delete;

  private:
    friend class AtcCursor;

    AtcIndex(ChunkStore &store, const IndexOptions &iopt);
    AtcIndex(std::unique_ptr<ChunkStore> owned, const IndexOptions &iopt);

    void load();
    uint64_t bufferRawEnd(uint64_t b) const;
    std::vector<uint8_t> decodeFrameSpan(size_t fa, size_t fz,
                                         parallel::ThreadPool *pool,
                                         FrameCarry *carry) const;

    std::unique_ptr<ChunkStore> owned_store_;
    ChunkStore *store_;
    ContainerInfo info_;
    comp::ConfiguredCodec codec_;
    /** v3 only: one scanned layout per chunk, indexed by chunk id. */
    std::vector<comp::StreamLayout> layouts_;
    /** Lossy only: record_starts_[i] = first record of interval i. */
    std::vector<uint64_t> record_starts_;
    mutable BlockCache<uint64_t> cache_;
};

/** Seekable reader over one AtcIndex; see the file comment. */
class AtcCursor : public trace::TraceCursor
{
  public:
    AtcCursor(std::shared_ptr<const AtcIndex> index,
              const CursorOptions &copt);
    ~AtcCursor() override;

    AtcCursor(const AtcCursor &) = delete;
    AtcCursor &operator=(const AtcCursor &) = delete;

    /** Produce up to @p n records from the current position. */
    size_t read(uint64_t *out, size_t n) override;

    util::Status seek(uint64_t record_index) override;
    uint64_t tell() const override { return pos_; }
    uint64_t size() const override { return index_->size(); }
    util::Status readRange(uint64_t begin, uint64_t end,
                           std::vector<uint64_t> &out) override;

    /** @return the shared index this cursor reads through. */
    const std::shared_ptr<const AtcIndex> &index() const { return index_; }

  private:
    void resetSequential();
    void seekLossless(uint64_t rec);
    void seekLosslessFallback(uint64_t rec);
    void seekLossy(uint64_t rec);
    void skipRecords(uint64_t n);
    size_t readImpl(uint64_t *out, size_t n);
    size_t readUnits(uint64_t *out, size_t n);
    void rangeLossless(uint64_t begin, uint64_t end,
                       std::vector<uint64_t> &out);
    void rangeLossy(uint64_t begin, uint64_t end,
                    std::vector<uint64_t> &out);
    void prefetchLossyChunks(uint64_t begin, uint64_t end);

    std::shared_ptr<const AtcIndex> index_;
    parallel::ThreadPool *pool_;
    uint64_t pos_ = 0;

    // Lossless state: either the sequential pipeline (LosslessReader,
    // CRC-verifying — active from construction and after seek(0)) or,
    // after a v3 seek, the decoded transform buffer unit_b_ (shared
    // with the index's cache) read from offset unit_off_, plus the
    // boundary frame carried into the next buffer's decode.
    std::unique_ptr<util::ByteSource> chunk_src_;
    std::unique_ptr<LosslessReader> sequential_;
    BlockCache<uint64_t>::Ptr unit_;
    uint64_t unit_b_ = 0;
    size_t unit_off_ = 0;
    AtcIndex::FrameCarry carry_;

    // Lossy state: shared interval trace, shared cache (both owned by
    // the index).
    std::unique_ptr<LossyDecoder> lossy_;
};

} // namespace atc::core

#endif // ATC_ATC_INDEX_HPP_

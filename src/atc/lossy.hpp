/**
 * @file
 * Lossy phase-based trace compression (paper §5.2).
 *
 * The trace is cut into intervals of L addresses. The first interval
 * always becomes a chunk (losslessly compressed with bytesort). Each
 * later interval is compared, via the sorted-byte-histogram distance,
 * against the signatures of recent chunks held in a bounded histogram
 * table (oldest chunk evicted when full). If the nearest chunk is
 * within epsilon, the interval is recorded as an *imitation* of that
 * chunk plus byte translations; otherwise it becomes a new chunk.
 *
 * The encoder produces chunks (into a ChunkStore) and an interval
 * record list; INFO serialization lives with the top-level AtcWriter.
 * The decoder regenerates the address stream from chunks + records,
 * reading decompressed chunks through a BlockCache — either a shared
 * one (an AtcIndex's, so every cursor over the container reuses one
 * working set) or a private instance.
 */

#ifndef ATC_ATC_LOSSY_HPP_
#define ATC_ATC_LOSSY_HPP_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "atc/block_cache.hpp"
#include "atc/container.hpp"
#include "atc/histogram.hpp"
#include "atc/lossless.hpp"

namespace atc::core {

/** Parameters of the lossy scheme. */
struct LossyParams
{
    /** Interval length L in addresses (paper: 10M). */
    uint64_t interval_len = 10'000'000;
    /** Similarity threshold epsilon (paper: 0.1). */
    double epsilon = 0.1;
    /** Histogram-table capacity in chunks (oldest evicted). */
    size_t chunk_table = 256;
    /** Disable to reproduce Figure 4's ablation. */
    bool translate = true;
    /** Byte budget of the decoder's decompressed-chunk cache (used
     *  only when the decoder owns its cache — decoders sharing an
     *  AtcIndex cache ignore it). Bytes-bounded, not chunk-counted:
     *  at paper scale one chunk is interval_len * 8 = 80 MB, so a
     *  count-based knob made the footprint workload-dependent. */
    size_t decoder_cache_bytes = kDefaultDecodedCacheBytes;
    /** Per-chunk lossless pipeline (paper: bytesort, B = 1M). */
    LosslessParams chunk_params;
};

/** One entry of the interval trace. */
struct IntervalRecord
{
    enum class Kind : uint8_t
    {
        Chunk = 0,   ///< interval stored losslessly as chunk chunk_id
        Imitate = 1, ///< interval imitates chunk chunk_id
    };

    Kind kind = Kind::Chunk;
    uint32_t chunk_id = 0;
    uint64_t length = 0;
    /** Valid for Kind::Imitate. */
    ByteTranslation trans;
};

/** Encoder-side counters. */
struct LossyStats
{
    uint64_t addresses = 0;
    uint64_t intervals = 0;
    uint64_t chunks_created = 0;
    uint64_t imitated = 0;
};

/** Single-pass lossy compressor. */
class LossyEncoder
{
  public:
    /**
     * Receives each interval that becomes a chunk, instead of the
     * built-in compress-into-the-store path. The payload is moved out
     * of the encoder; ids are dense and increasing. This is the seam
     * the parallel driver uses to offload chunk compression.
     */
    using ChunkFn =
        std::function<void(uint32_t id, std::vector<uint64_t> payload)>;

    /**
     * @param params scheme parameters
     * @param store  chunk destination (must outlive the encoder)
     * @param chunk_fn optional override for chunk emission; when set,
     *        the encoder never touches @p store itself
     */
    LossyEncoder(const LossyParams &params, ChunkStore &store,
                 ChunkFn chunk_fn = nullptr);

    /** Feed a batch of addresses — the primary entry point. */
    void write(const uint64_t *addrs, size_t n);

    /** Feed one address. */
    void code(uint64_t addr) { write(&addr, 1); }

    /**
     * The signature stage of processing an interval, exposed so the
     * parallel writer can run it on pool workers: pure and
     * order-independent (histograms of the payload only), while the
     * decision stage below stays order-dependent (it walks the chunk
     * table). Timed under lossy.signature_us wherever it runs.
     */
    static IntervalSignature signatureOf(const uint64_t *addrs, size_t n);

    /**
     * Feed one whole interval whose signature was already computed
     * (via signatureOf) — the order-preserving reassembly entry the
     * parallel writer drains pooled signatures into, in submission
     * order. Byte-identical to write()-ing the same addresses: the
     * decision, records, and chunk emission follow the same code path.
     * Only the final interval before finish() may be shorter than
     * interval_len, and calls must not be mixed with buffered write()
     * leftovers (an unaligned mix would change interval boundaries).
     */
    void writeInterval(std::vector<uint64_t> payload,
                       const IntervalSignature &sig);

    /** Flush the final (possibly partial) interval. */
    void finish();

    /** @return counters (valid after finish()). */
    const LossyStats &stats() const { return stats_; }

    /** @return the interval trace (valid after finish()). */
    const std::vector<IntervalRecord> &records() const { return records_; }

  private:
    void processInterval();
    void applyInterval(const IntervalSignature &sig);
    void emitChunk(const IntervalSignature &sig);

    struct TableEntry
    {
        uint32_t chunk_id;
        IntervalSignature sig;
    };

    LossyParams params_;
    ChunkStore &store_;
    ChunkFn chunk_fn_;
    std::vector<uint64_t> buffer_;
    std::deque<TableEntry> table_;
    std::vector<IntervalRecord> records_;
    LossyStats stats_;
    bool finished_ = false;
};

/**
 * Decompress chunk @p id of @p store in full through the per-chunk
 * lossless pipeline of @p params. The one whole-chunk decode used by
 * every lossy consumer (LossyDecoder, the cursor's pooled readRange
 * prefetch, the parallel reader), so they reject corrupt chunks
 * identically. Thread-safe for concurrent calls (openChunk must be —
 * see ChunkStore).
 */
std::vector<uint64_t> decodeChunkPayload(const LosslessParams &params,
                                         ChunkStore &store, uint32_t id);

/** Streaming regenerator for lossy traces. */
class LossyDecoder
{
  public:
    /** Cache of decompressed chunks, keyed by chunk id. */
    using ChunkCache = BlockCache<uint64_t>;

    /**
     * @param params  parameters used at encode time (chunk pipeline,
     *                decoder cache budget)
     * @param store   chunk source (must outlive the decoder)
     * @param records interval trace parsed from INFO
     * @param cache   shared decompressed-chunk cache (e.g. an
     *                AtcIndex's; must outlive the decoder); when null
     *                the decoder owns a private cache bounded by
     *                params.decoder_cache_bytes
     */
    LossyDecoder(const LossyParams &params, ChunkStore &store,
                 std::vector<IntervalRecord> records,
                 ChunkCache *cache = nullptr);

    /**
     * Borrowing variant for shared, read-only interval traces (e.g.
     * the records held by an AtcIndex): @p records must outlive the
     * decoder. Imitation translations can run to 2 KiB per record, so
     * cursors sharing one index must not copy the trace per cursor.
     */
    LossyDecoder(const LossyParams &params, ChunkStore &store,
                 const std::vector<IntervalRecord> *records,
                 ChunkCache *cache = nullptr);

    // records_ may point at the sibling owned_records_, so the
    // compiler-generated copy/move would leave the copy dangling.
    LossyDecoder(const LossyDecoder &) = delete;
    LossyDecoder &operator=(const LossyDecoder &) = delete;

    /**
     * Produce up to @p n regenerated addresses — the primary entry.
     * @return addresses produced; 0 means end of trace
     */
    size_t read(uint64_t *out, size_t n);

    /**
     * Produce the next regenerated address.
     * @return false at end of trace
     */
    bool decode(uint64_t *out) { return read(out, 1) == 1; }

    /**
     * Reposition so the next read() starts @p skip records into
     * interval record @p record_idx (== records().size() positions at
     * end of trace). Nothing is decoded here: the interval is
     * regenerated, and the skip applied, by the next read(). The
     * decompressed-chunk cache is kept — seeking around a working set
     * of imitated intervals stays cheap.
     */
    void seekRecord(size_t record_idx, uint64_t skip = 0);

    /** @return the interval trace driving this decoder. */
    const std::vector<IntervalRecord> &records() const { return *records_; }

  private:
    /** Load (through the cache) decompressed chunk @p id; the result
     *  stays pinned in current_chunk_ until the next load. */
    const std::vector<uint64_t> &loadChunk(uint32_t id);
    bool nextInterval();

    LossyParams params_;
    ChunkStore &store_;
    std::vector<IntervalRecord> owned_records_;
    const std::vector<IntervalRecord> *records_;
    size_t record_idx_ = 0;

    // Decompressed-chunk cache: the shared one when provided, else an
    // owned private instance. current_chunk_ pins the active chunk so
    // eviction (by this decoder or a sibling sharing the cache) never
    // pulls it out from under an in-flight interval.
    std::unique_ptr<ChunkCache> owned_cache_;
    ChunkCache *cache_;
    ChunkCache::Ptr current_chunk_;
    uint32_t current_id_ = 0;

    std::vector<uint64_t> interval_;
    size_t pos_ = 0;
    /** Records of the next regenerated interval that read() skips. */
    uint64_t skip_ = 0;
};

} // namespace atc::core

#endif // ATC_ATC_LOSSY_HPP_

/**
 * @file
 * Shared decoded-record cache for the random-access read path.
 *
 * One BlockCache hangs off an AtcIndex and every AtcCursor minted from
 * it reads through it. It holds whole decode units of decoded records:
 * a lossless v3 transform buffer keyed by its buffer number (the
 * bytesort buffer is the smallest unit the inverse transform can
 * decode), or a lossy chunk keyed by its chunk id. A hit is therefore
 * a copy out of a shared, immutable block — no codec decode and no
 * inverse transform. The budget is in *bytes* (one lossy chunk at
 * paper scale is 80 MB, so an entry count would make the footprint
 * workload-dependent).
 *
 * Concurrency: one mutex guards the map and the LRU list. Units are
 * large (a buffer is B records, a chunk interval_len records) and a
 * lookup holds the lock only for a hash probe, so a single lock does
 * not contend; it also keeps the budget exact, which the lossy range
 * prefetch planner relies on. Values are immutable vectors handed out
 * as shared_ptr — eviction never invalidates a block a reader is still
 * holding.
 *
 * Sizing semantics: inserting evicts from the cold end until the cache
 * fits, so residency never exceeds the budget. A block larger than the
 * whole budget is never retained, and a budget of 0 disables the cache
 * (get always misses; put stores nothing and just wraps the block, so
 * callers are oblivious).
 */

#ifndef ATC_ATC_BLOCK_CACHE_HPP_
#define ATC_ATC_BLOCK_CACHE_HPP_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace atc::core {

namespace detail {

// Process-wide cache counters on the obs registry, aggregated over
// every BlockCache instance. Per-instance figures remain available
// through stats().
struct CacheObsMetrics {
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &insertions;
    obs::Counter &evictions;
};

inline CacheObsMetrics &
cacheObsMetrics()
{
    auto &r = obs::Registry::global();
    static CacheObsMetrics m{
        r.counter("cache.hits"),
        r.counter("cache.misses"),
        r.counter("cache.insertions"),
        r.counter("cache.evictions"),
    };
    return m;
}

}  // namespace detail

/** Default budget of the shared decoded-record cache (see AtcIndex):
 *  large enough to retain a few paper-scale lossy chunks (80 MB at
 *  interval_len = 10M) or dozens of 1M-record transform buffers. */
constexpr size_t kDefaultDecodedCacheBytes = size_t(256) << 20;

/** Counters of a BlockCache. */
struct BlockCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Current footprint (payload bytes) and resident entry count. */
    size_t bytes = 0;
    size_t entries = 0;
};

/** Concurrency-safe LRU cache of decoded blocks (see the file
 *  comment). @p T is the element type of the cached vectors. */
template <typename T>
class BlockCache
{
  public:
    using Block = std::vector<T>;
    using Ptr = std::shared_ptr<const Block>;

    /** @param capacity_bytes payload budget; 0 disables caching */
    explicit BlockCache(size_t capacity_bytes) : capacity_(capacity_bytes)
    {}

    BlockCache(const BlockCache &) = delete;
    BlockCache &operator=(const BlockCache &) = delete;

    /** @return the cached block for @p key, refreshed to
     *  most-recently-used, or nullptr on a miss. */
    Ptr
    get(uint64_t key)
    {
        if (capacity_ == 0)
            return nullptr;
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++stats_.misses;
            detail::cacheObsMetrics().misses.inc();
            return nullptr;
        }
        ++stats_.hits;
        detail::cacheObsMetrics().hits.inc();
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->block;
    }

    /**
     * Insert @p block under @p key and return the resident entry. When
     * @p key is already cached (another cursor decoded it first) the
     * existing block wins and @p block is dropped — both are decodes
     * of the same immutable unit. With the cache disabled, or a block
     * larger than the whole budget, the block is wrapped and returned
     * without being stored.
     */
    Ptr
    put(uint64_t key, Block block)
    {
        size_t bytes = block.size() * sizeof(T);
        Ptr ptr = std::make_shared<const Block>(std::move(block));
        if (capacity_ == 0 || bytes > capacity_)
            return ptr;
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return it->second->block;
        }
        lru_.push_front(Entry{key, ptr, bytes});
        map_.emplace(key, lru_.begin());
        stats_.bytes += bytes;
        ++stats_.insertions;
        detail::cacheObsMetrics().insertions.inc();
        // Evict cold entries; the new one fits on its own (checked
        // above), so it is never the victim.
        while (stats_.bytes > capacity_) {
            Entry &victim = lru_.back();
            stats_.bytes -= victim.bytes;
            map_.erase(victim.key);
            lru_.pop_back();
            ++stats_.evictions;
            detail::cacheObsMetrics().evictions.inc();
        }
        return ptr;
    }

    /** @return true when a nonzero budget was configured. */
    bool enabled() const { return capacity_ != 0; }

    /** @return the configured payload budget in bytes. */
    size_t capacityBytes() const { return capacity_; }

    /** @return a consistent snapshot of the counters. */
    BlockCacheStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        BlockCacheStats out = stats_;
        out.entries = lru_.size();
        return out;
    }

  private:
    struct Entry
    {
        uint64_t key;
        Ptr block;
        size_t bytes;
    };

    size_t capacity_;
    mutable std::mutex mu_;
    std::list<Entry> lru_; // front = most recently used
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> map_;
    /** entries is filled in by stats(). */
    BlockCacheStats stats_;
};

} // namespace atc::core

#endif // ATC_ATC_BLOCK_CACHE_HPP_

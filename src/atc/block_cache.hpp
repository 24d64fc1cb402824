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
 * Single flight: load() is the one entry every decoder goes through.
 * It returns the resident block (a hit), the in-flight decode of the
 * same key by another thread to wait on (a join, counted as
 * `cache.coalesced`), or a Claim that makes the caller the unit's one
 * decoder. The claimant publishes the decoded block (every waiter gets
 * it, and it is inserted when the budget allows) or fails the claim
 * (every waiter gets the same error and no entry is left behind, so a
 * retry decodes again). Concurrent readers of one cold unit therefore
 * share one decode at any budget. A caller that claims several units
 * must publish or fail its own claims before it waits on anyone
 * else's, so claimants never wait on each other in a cycle.
 *
 * Concurrency: one mutex guards the map, the LRU list and the
 * in-flight table. Units are large (a buffer is B records, a chunk
 * interval_len records) and a lookup holds the lock only for a hash
 * probe, so a single lock does not contend; it also keeps the budget
 * exact, which the lossy range prefetch planner relies on. Decodes run
 * outside the lock. Values are immutable vectors handed out as
 * shared_ptr — eviction never invalidates a block a reader is still
 * holding.
 *
 * Sizing semantics: inserting evicts from the cold end until the cache
 * fits, so residency never exceeds the budget. A block larger than the
 * whole budget is never retained. A budget of 0 retains nothing (get
 * always misses) but still coalesces concurrent decodes of one key.
 */

#ifndef ATC_ATC_BLOCK_CACHE_HPP_
#define ATC_ATC_BLOCK_CACHE_HPP_

#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace detail {

// Process-wide cache counters on the obs registry, aggregated over
// every BlockCache instance. Per-instance figures remain available
// through stats().
struct CacheObsMetrics {
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &coalesced;
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
        r.counter("cache.coalesced"),
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
    /** Loads that joined another thread's in-flight decode of the
     *  same unit instead of decoding it again. */
    uint64_t coalesced = 0;
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

  private:
    /** How a decode ended: the block, or (block null) the message of
     *  its failure. */
    struct Outcome
    {
        Ptr block;
        std::string error;
    };

  public:
    /**
     * The obligation to decode one unit, handed out by load(). Exactly
     * one of publish() and fail() resolves it; a Claim destroyed
     * unresolved fails its waiters rather than leaving them hanging.
     */
    class Claim
    {
      public:
        Claim() = default;
        Claim(Claim &&o) noexcept
            : cache_(std::exchange(o.cache_, nullptr)), key_(o.key_)
        {}
        ~Claim()
        {
            if (cache_ != nullptr)
                fail("decode of a cached unit was abandoned");
        }

        /** @return true while this claim is held and unresolved. */
        explicit operator bool() const { return cache_ != nullptr; }

        /** Insert @p block (budget permitting) and hand it to every
         *  waiter. @return the block. */
        Ptr
        publish(Block block)
        {
            Ptr ptr = std::make_shared<const Block>(std::move(block));
            std::exchange(cache_, nullptr)->settle(key_, {ptr, {}});
            return ptr;
        }

        /** Drop the flight without an entry; every waiter's get()
         *  raises a util::Error carrying @p message. */
        void
        fail(const std::string &message)
        {
            std::exchange(cache_, nullptr)->settle(key_, {nullptr, message});
        }

        /** publish() what @p decode returns, or fail() with the message
         *  of what it throws and rethrow. */
        template <typename Decode>
        Ptr
        run(Decode &&decode)
        {
            try {
                return publish(decode());
            } catch (const std::exception &e) {
                if (cache_ != nullptr)
                    fail(e.what());
                throw;
            }
        }

      private:
        friend class BlockCache;

        BlockCache *cache_ = nullptr;
        uint64_t key_ = 0;
    };

    /** Another thread's in-flight decode of a unit. */
    class Wait
    {
      public:
        /** @return true when there is a decode to wait for. */
        bool valid() const { return result_.valid(); }

        /**
         * Block until the decode resolves. Each waiter raises its own
         * copy of a failure, so no exception object is shared across
         * threads. @return the decoded block
         * @throws util::Error with the failed decode's message
         */
        Ptr
        get() const
        {
            const Outcome &outcome = result_.get();
            if (!outcome.block)
                util::raise(outcome.error);
            return outcome.block;
        }

      private:
        friend class BlockCache;
        std::shared_future<Outcome> result_;
    };

    /** What load() found; exactly one member is set. */
    struct Load
    {
        /** Resident block (a hit). */
        Ptr block;
        /** Another thread's in-flight decode of the unit. */
        Wait wait;
        /** The caller is this unit's decoder. */
        Claim claim;
    };

    /** @param capacity_bytes payload budget; 0 retains nothing */
    explicit BlockCache(size_t capacity_bytes) : capacity_(capacity_bytes)
    {}

    BlockCache(const BlockCache &) = delete;
    BlockCache &operator=(const BlockCache &) = delete;

    /** @return the cached block for @p key, refreshed to
     *  most-recently-used, or nullptr on a miss. Never claims. */
    Ptr
    get(uint64_t key)
    {
        if (capacity_ == 0)
            return nullptr;
        std::lock_guard<std::mutex> lock(mu_);
        Ptr hit = hitLocked(key);
        if (!hit)
            countMiss();
        return hit;
    }

    /** Hit, join or claim @p key (see the file comment). */
    Load
    load(uint64_t key)
    {
        Load out;
        std::lock_guard<std::mutex> lock(mu_);
        if ((out.block = hitLocked(key)))
            return out;
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            ++stats_.coalesced;
            detail::cacheObsMetrics().coalesced.inc();
            out.wait.result_ = it->second.result;
            return out;
        }
        if (capacity_ != 0)
            countMiss();
        Flight flight;
        flight.result = flight.promise.get_future().share();
        inflight_.emplace(key, std::move(flight));
        out.claim.cache_ = this;
        out.claim.key_ = key;
        return out;
    }

    /**
     * load() @p key, running @p decode (returning a Block) when the
     * caller claims it. @throws what @p decode threw here, or a
     * util::Error with its message when the decode ran in the thread
     * this call joined
     */
    template <typename Decode>
    Ptr
    getOrLoad(uint64_t key, Decode &&decode)
    {
        Load l = load(key);
        if (l.block)
            return l.block;
        if (l.wait.valid())
            return l.wait.get();
        return l.claim.run(std::forward<Decode>(decode));
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

    Ptr
    hitLocked(uint64_t key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        ++stats_.hits;
        detail::cacheObsMetrics().hits.inc();
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->block;
    }

    void
    countMiss()
    {
        ++stats_.misses;
        detail::cacheObsMetrics().misses.inc();
    }

    /** End @p key's flight: insert the decoded block (none on
     *  failure) when it fits the budget, evicting cold entries, then
     *  resolve the waiters. A later load() finds the entry or, with
     *  none retained, claims afresh. */
    void
    settle(uint64_t key, Outcome outcome)
    {
        auto flight = [&] {
            std::lock_guard<std::mutex> lock(mu_);
            auto node = inflight_.extract(key);
            if (outcome.block)
                insertLocked(key, outcome.block);
            return node;
        }();
        flight.mapped().promise.set_value(std::move(outcome));
    }

    void
    insertLocked(uint64_t key, const Ptr &block)
    {
        size_t bytes = block->size() * sizeof(T);
        if (bytes > capacity_)
            return;
        lru_.push_front(Entry{key, block, bytes});
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
    }

    struct Flight
    {
        std::promise<Outcome> promise;
        std::shared_future<Outcome> result;
    };

    size_t capacity_;
    mutable std::mutex mu_;
    std::list<Entry> lru_; // front = most recently used
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> map_;
    /** Units being decoded, each resolved by its Claim. A key is
     *  never resident and in flight at once. */
    std::unordered_map<uint64_t, Flight> inflight_;
    /** entries is filled in by stats(). */
    BlockCacheStats stats_;
};

} // namespace atc::core

#endif // ATC_ATC_BLOCK_CACHE_HPP_

/**
 * @file
 * Measurement primitives of the ATC benchmark: order statistics with
 * the percentile rule, and an in-memory span recorder with the
 * self-time arithmetic used by traced runs.
 *
 * Nothing here touches the library; it is unit-tested on its own.
 */

#ifndef ATCBENCH_MEASURE_HPP_
#define ATCBENCH_MEASURE_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace atcbench {

using Clock = std::chrono::steady_clock;

/** @return seconds between two steady-clock points. */
double seconds(Clock::time_point t0, Clock::time_point t1);

/** @return CPU seconds consumed so far by every thread of the process. */
double processCpuSeconds();

/** @return CPU seconds consumed so far by the calling thread. */
double threadCpuSeconds();

/**
 * Wall and CPU time of one timed section. CPU time leaves out the time
 * a virtual CPU was stolen by the host or the process waited for a
 * core, so it holds steady on a shared machine where wall time does
 * not.
 */
struct Timing
{
    double wall_s = 0;
    double cpu_s = 0;

    Timing &operator+=(const Timing &o)
    {
        wall_s += o.wall_s;
        cpu_s += o.cpu_s;
        return *this;
    }
};

/** @return the median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Nearest-rank @p pct-th percentile of @p v, or nothing when fewer than
 * @p min_beyond samples lie above the percentile's rank. A tail figure
 * with fewer samples beyond it than that is an anecdote, not a
 * percentile: p99 needs at least 1000 samples, p50 at least 20.
 */
std::optional<double> percentile(std::vector<double> v, double pct,
                                 size_t min_beyond = 10);

/** One finished span. Parent 0 marks a root. */
struct SpanRecord
{
    uint32_t id = 0;
    uint32_t parent = 0;
    std::string name;
    double start_s = 0; ///< seconds since the recorder's epoch
    double end_s = 0;
    uint32_t thread = 0; ///< small per-thread number, for the viewer
};

/**
 * Thread-safe span recorder. When disabled it records nothing, but
 * Span still measures its own duration, because the untimed-run
 * metrics are built from the same calls.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false);

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** @return a fresh span id (ids are never 0). */
    uint32_t nextId() { return next_id_.fetch_add(1) + 1; }

    /** Store one finished span (no-op while disabled). */
    void add(uint32_t id, uint32_t parent, const char *name,
             Clock::time_point t0, Clock::time_point t1);

    /** @return a copy of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

    /** @return the spans as Chrome trace-event JSON ("X" events). */
    std::string chromeJson() const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    std::atomic<uint32_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; // guarded by mu_
};

/**
 * Wall time of one call into a layer. Construct before the call, end()
 * after it; the duration is always returned, and recorded as a span
 * when the tracer is enabled. Children name this span's id() as their
 * parent, from any thread.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, uint32_t parent);
    ~Span() { end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint32_t id() const { return id_; }

    /** Close the span (idempotent). @return its duration in seconds. */
    double end();

  private:
    Tracer &tracer_;
    const char *name_;
    uint32_t id_;
    uint32_t parent_;
    Clock::time_point t0_;
    double dur_ = -1;
};

/**
 * @return the length of the union of @p intervals, each first clipped
 * to [@p lo, @p hi]. Overlapping children (pool threads, concurrent
 * client connections) are counted once.
 */
double unionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi);

/** Self-time attribution of a span forest. */
struct SelfTimes
{
    /** Self time summed by span name. */
    std::map<std::string, double> by_name;
    /** Self time summed by layer: the name up to its first '.'. Root
     *  spans are not a layer and are left out. */
    std::map<std::string, double> by_layer;
    /** Summed duration of the root spans. */
    double root_s = 0;
    /** Root time that no child span covers. */
    double unattributed_s = 0;
};

/**
 * Self time of a span is its duration minus the part of its interval
 * that the union of its direct children covers. Children whose parent
 * is missing from @p spans are treated as roots.
 */
SelfTimes selfTimes(const std::vector<SpanRecord> &spans);

} // namespace atcbench

#endif // ATCBENCH_MEASURE_HPP_

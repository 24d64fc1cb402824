#include "measure.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace atcbench {

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

namespace {

double
cpuClock(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
processCpuSeconds()
{
    return cpuClock(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return cpuClock(CLOCK_THREAD_CPUTIME_ID);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::optional<double>
percentile(std::vector<double> v, double pct, size_t min_beyond)
{
    if (v.empty())
        return std::nullopt;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least pct% of the
    // samples at or below it.
    size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    size_t idx = rank == 0 ? 0 : rank - 1;
    if (v.size() - 1 - idx < min_beyond)
        return std::nullopt;
    return v[idx];
}

namespace {

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t mine = next.fetch_add(1) + 1;
    return mine;
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

void
Tracer::add(uint32_t id, uint32_t parent, const char *name,
            Clock::time_point t0, Clock::time_point t1)
{
    if (!enabled_)
        return;
    SpanRecord r;
    r.id = id;
    r.parent = parent;
    r.name = name;
    r.start_s = seconds(epoch_, t0);
    r.end_s = seconds(epoch_, t1);
    r.thread = threadNumber();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(r));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::string
Tracer::chromeJson() const
{
    std::vector<SpanRecord> all = spans();
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%u,\"parent\":%u}}",
                      i ? "," : "", s.name.c_str(), s.thread,
                      s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, s.id,
                      s.parent);
        out += buf;
        out += '\n';
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

Span::Span(Tracer &tracer, const char *name, uint32_t parent)
    : tracer_(tracer), name_(name),
      id_(tracer.enabled() ? tracer.nextId() : 0), parent_(parent),
      t0_(Clock::now())
{}

double
Span::end()
{
    if (dur_ >= 0)
        return dur_;
    Clock::time_point t1 = Clock::now();
    dur_ = seconds(t0_, t1);
    tracer_.add(id_, parent_, name_, t0_, t1);
    return dur_;
}

double
unionLength(std::vector<std::pair<double, double>> intervals, double lo,
            double hi)
{
    for (auto &iv : intervals) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double total = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto &iv : intervals) {
        if (iv.second <= iv.first)
            continue;
        if (open && iv.first <= cur_hi) {
            cur_hi = std::max(cur_hi, iv.second);
            continue;
        }
        if (open)
            total += cur_hi - cur_lo;
        cur_lo = iv.first;
        cur_hi = iv.second;
        open = true;
    }
    if (open)
        total += cur_hi - cur_lo;
    return total;
}

SelfTimes
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<uint32_t, size_t> by_id;
    for (size_t i = 0; i < spans.size(); ++i)
        by_id[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    std::vector<bool> root(spans.size(), true);
    for (size_t i = 0; i < spans.size(); ++i) {
        auto it = by_id.find(spans[i].parent);
        if (spans[i].parent == 0 || it == by_id.end())
            continue;
        root[i] = false;
        children[it->second].emplace_back(spans[i].start_s,
                                          spans[i].end_s);
    }
    SelfTimes out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        double dur = s.end_s - s.start_s;
        double self = dur - unionLength(children[i], s.start_s, s.end_s);
        out.by_name[s.name] += self;
        if (root[i]) {
            out.root_s += dur;
            out.unattributed_s += self;
        } else {
            out.by_layer[s.name.substr(0, s.name.find('.'))] += self;
        }
    }
    return out;
}

} // namespace atcbench

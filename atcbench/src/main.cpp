/**
 * @file
 * The ATC benchmark program: one command per workload.
 *
 *   atcbench --workload lossless|lossy|serve --seed N --seconds S
 *            --trace 0|1 --work-dir DIR
 *
 * Every workload follows one trace through both of the paper's
 * pipelines, once per pass:
 *
 *   ingest  raw accesses -> sharded FilterStage -> writer -> sealed
 *           container on disk
 *   replay  reader open -> full sequential read -> compared with the
 *           filtered stream
 *   serve   TraceServer over the containers; closed-loop clients keep
 *           a fixed number of SEEK / READ_RANGE requests in flight at
 *           Zipf-skewed offsets; every payload is compared with a
 *           direct AtcCursor::readRange after the clock stops
 *
 * The workloads differ in mode, models and how hard each phase is
 * pushed (see README.md for why each exists). Inputs are generated
 * from the seed before anything is timed. Passes repeat until the
 * time budget is spent and the latency sample is large enough for a
 * p99; rates are medians over passes, in records per CPU-second.
 * `--trace 1` alternates traced and untraced passes and reports the
 * per-layer metrics instead.
 *
 * The last line of standard output is one JSON object; the exit status
 * is non-zero when any check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "inputs.hpp"
#include "measure.hpp"
#include "sut.hpp"

namespace atcbench {
namespace {

namespace fs = std::filesystem;

/** Pool width of every writer, reader, filter and server: a fixed
 *  number, never the host's core count. */
constexpr size_t kPoolWidth = 4;
/** Client connections (one thread each, so no more than the four
 *  cores) and the requests each keeps in flight. */
constexpr size_t kConnections = 4;
constexpr size_t kDepth = 2;
/** Raw accesses per FilterStage::write call. */
constexpr size_t kFilterBatch = 1 << 20;
/** Serve latencies needed before p99 may be reported. */
constexpr size_t kMinLatencySamples = 1000;
/** Skew of the request offsets over the regions of a container. */
constexpr double kZipfS = 1.1;
/** Hard limit on the measured passes, whatever --seconds says. */
constexpr double kMaxPassSeconds = 120;
/** Lossy fidelity bound on the worst LRU miss-ratio difference. */
constexpr double kMaxMissRatioError = 0.05;
/** Cache geometries of the fidelity check: sets x 1..16 ways. */
constexpr uint32_t kFidelitySets[] = {64, 256, 1024};
constexpr uint32_t kFidelityWays = 16;

struct Workload
{
    const char *name;
    std::vector<const char *> models;
    size_t raw_per_model;
    sut::Geometry geometry;
    uint32_t intervals = 0;   ///< lossy: interval count the length targets
    uint64_t cache_bytes = 0; ///< server decoded-block cache budget
    size_t requests = 0;      ///< timed, per connection per pass
    uint32_t request_records = 0;
    size_t hot_regions = 0;
};

// The writer's default geometry (the paper's B = 1 Mi addresses, 1 MiB
// codec blocks) and the serve geometry of the repo's throughput bench,
// where a served request inverse-transforms 1 MiB instead of 8 MiB.
constexpr sut::Geometry kPaperGeometry = {false, 1 << 20, 1 << 20, 0};
constexpr sut::Geometry kServeGeometry = {false, 128 << 10, 256 << 10, 0};

// README.md gives the reason for every figure below.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {.name = "lossless",
         .models = {"429.mcf", "470.lbm", "403.gcc", "445.gobmk"},
         .raw_per_model = 2'000'000,
         .geometry = kPaperGeometry,
         .cache_bytes = 256u << 20,
         .requests = 32,
         .request_records = 1000,
         .hot_regions = 1},
        {.name = "lossy",
         .models = {"400.perlbench"},
         .raw_per_model = 12'000'000,
         .geometry = {true, 1 << 20, 1 << 20, 0},
         .intervals = 40,
         .cache_bytes = 0,
         .requests = 32,
         .request_records = 32768,
         .hot_regions = 4},
        {.name = "serve",
         .models = {"429.mcf"},
         .raw_per_model = 2'400'000,
         .geometry = kServeGeometry,
         .cache_bytes = 8u << 20,
         .requests = 100,
         .request_records = 1000,
         .hot_regions = 4},
    };
    return w;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir;
};

/** Generated before anything is timed; the system sees only these. */
struct Inputs
{
    std::vector<std::vector<uint64_t>> raw;      ///< per model
    std::vector<std::vector<uint64_t>> filtered; ///< serial reference
    sut::Geometry geometry;
    std::vector<std::vector<Request>> warmup;    ///< per connection
    std::vector<std::vector<Request>> requests;  ///< per connection
    double hot_share = 0; ///< share of requests into the hot set
};

Inputs
makeInputs(const Workload &w, uint64_t seed)
{
    Inputs in;
    for (size_t m = 0; m < w.models.size(); ++m) {
        in.raw.push_back(sut::rawAccesses(w.models[m], deriveSeed(seed, m),
                                          w.raw_per_model));
        in.filtered.push_back(sut::filterSerial(in.raw.back()));
    }
    in.geometry = w.geometry;
    uint64_t region = w.geometry.buffer_addrs;
    if (w.geometry.lossy) {
        in.geometry.interval_len = in.filtered[0].size() / w.intervals + 1;
        region = in.geometry.interval_len;
    }
    size_t hot = 0, total = 0;
    for (size_t c = 0; c < kConnections; ++c) {
        RequestPlan plan;
        plan.records = in.filtered[c % w.models.size()].size();
        plan.region = region;
        plan.count = w.request_records;
        plan.zipf_s = kZipfS;
        plan.hot_regions = w.hot_regions;
        // Connections sharing a container split its regions for the
        // warm-up.
        const size_t sharing = (kConnections - c % w.models.size() +
                                w.models.size() - 1) /
                               w.models.size();
        in.warmup.push_back(
            warmupRequests(plan, c / w.models.size(), sharing));
        in.requests.push_back(makeRequests(plan, seed, c, w.requests));
        for (const Request &r : in.requests.back())
            hot += r.hot;
        total += w.requests;
    }
    in.hot_share = double(hot) / double(total);
    return in;
}

/** Latency samples of one request class, in milliseconds. */
using Samples = std::vector<double>;

const char *const kRequestSpan[2][2] = {
    {"serve.client.read_range.cold", "serve.client.read_range.hot"},
    {"serve.client.seek.cold", "serve.client.seek.hot"},
};

struct PassResult
{
    Timing setup;  ///< CPU: the calling thread's
    Timing ingest; ///< CPU: the whole process's
    Timing replay; ///< CPU: the whole process's
    Timing round;  ///< CPU: the process's minus the client threads'
    double timed_s = 0; ///< wall of all four; the trace-overhead base
    double steal = 0;   ///< host CPU time stolen during the pass, share
    uint64_t raw = 0;
    uint64_t filtered = 0;
    uint64_t bytes = 0;
    uint64_t replayed = 0;
    uint64_t served = 0;
    uint64_t intervals = 0;
    uint64_t imitated = 0;
    uint64_t deferred = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> registry; ///< delta over the pass
    SelfTimes self;
};

uint64_t
directoryBytes(const std::string &dir)
{
    uint64_t total = 0;
    for (const auto &e : fs::directory_iterator(dir))
        total += e.file_size();
    return total;
}

class Runner
{
  public:
    Runner(const Workload &w, const std::string &work_dir, Inputs in)
        : w_(w), in_(std::move(in)), filter_pool_(kPoolWidth)
    {
        for (size_t m = 0; m < w_.models.size(); ++m)
            dirs_.push_back(work_dir + "/c" + std::to_string(m));
        lossy_first_.resize(w_.models.size());
    }

    ~Runner()
    {
        for (const std::string &dir : dirs_)
            fs::remove_all(dir);
    }

    PassResult pass(bool traced);

    Tracer &tracer() { return tracer_; }
    Samples &all() { return all_; }
    Samples &cls(int seek, int hot) { return by_class_[seek][hot]; }
    double missRatioError() const { return mre_; }
    void clearSamples()
    {
        all_.clear();
        for (auto &row : by_class_)
            for (Samples &s : row)
                s.clear();
    }
    void fail(const std::string &what)
    {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }

  private:
    void serveRound(PassResult &r, uint32_t parent);

    const Workload &w_;
    Inputs in_;
    sut::Pool filter_pool_;
    Tracer tracer_;
    std::vector<std::string> dirs_;
    std::vector<std::vector<uint64_t>> lossy_first_;
    std::vector<uint64_t> replay_buf_; // kept, so passes reuse its pages
    double mre_ = 0;
    Samples all_;
    Samples by_class_[2][2];
};

PassResult
Runner::pass(bool traced)
{
    tracer_.setEnabled(traced);
    size_t span_mark = tracer_.spans().size();
    auto before = sut::registrySnapshot();
    PassResult r;
    {
        Span root(tracer_, "pass", 0);
        std::vector<uint64_t> &out = replay_buf_;
        for (size_t m = 0; m < dirs_.size(); ++m) {
            fs::remove_all(dirs_[m]);
            ++r.attempted;
            try {
                sut::IngestResult ing =
                    sut::ingest(dirs_[m], in_.geometry, kPoolWidth,
                                filter_pool_, in_.raw[m], kFilterBatch,
                                tracer_, root.id());
                r.setup += ing.setup;
                r.ingest += ing.ingest;
                r.intervals += ing.intervals;
                r.imitated += ing.imitated;
                r.raw += in_.raw[m].size();
                r.filtered += in_.filtered[m].size();
                r.bytes += directoryBytes(dirs_[m]);
            } catch (const std::exception &e) {
                fail(std::string("ingest: ") + e.what());
                ++r.failed;
                continue;
            }
            ++r.attempted;
            try {
                sut::ReplayResult rep =
                    sut::replay(dirs_[m], kPoolWidth, out, tracer_,
                                root.id());
                r.setup += rep.setup;
                r.replay += rep.replay;
                r.replayed += out.size();
            } catch (const std::exception &e) {
                fail(std::string("replay: ") + e.what());
                ++r.failed;
                continue;
            }
            Span verify(tracer_, "bench.verify", root.id());
            const std::vector<uint64_t> &ref = in_.filtered[m];
            bool ok = out.size() == ref.size();
            if (ok && !in_.geometry.lossy) {
                ok = out == ref;
            } else if (ok && lossy_first_[m].empty()) {
                // Fidelity is a property of the inputs; check it once
                // and then require every later replay to be identical.
                for (uint32_t sets : kFidelitySets)
                    mre_ = std::max(mre_, sut::missRatioError(
                                              ref, out, sets,
                                              kFidelityWays));
                ok = mre_ <= kMaxMissRatioError;
                lossy_first_[m] = out;
            } else if (ok) {
                ok = out == lossy_first_[m];
            }
            if (!ok) {
                fail("replay of " + dirs_[m] + " differs from its input");
                ++r.failed;
            }
        }
        serveRound(r, root.id());
        r.timed_s = r.setup.wall_s + r.ingest.wall_s + r.replay.wall_s +
                    r.round.wall_s;
    }
    auto after = sut::registrySnapshot();
    for (const auto &[k, v] : after)
        r.registry[k] = v - (before.count(k) ? before.at(k) : 0.0);
    std::vector<SpanRecord> spans = tracer_.spans();
    spans.erase(spans.begin(), spans.begin() + span_mark);
    r.self = selfTimes(spans);
    return r;
}

void
Runner::serveRound(PassResult &r, uint32_t parent)
{
    struct Conn
    {
        std::unique_ptr<sut::Client> client;
        std::vector<Request> reqs;       // warm-up, then timed
        size_t warm = 0;                 // leading warm-up requests
        std::vector<sut::Reply> replies; // id 0 until answered
        std::vector<double> lat_ms;
        double cpu_s = 0; ///< the client thread's own, timed part
        std::string error;
    };
    sut::Server server;
    std::vector<Conn> conns(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
        Conn &conn = conns[c];
        conn.reqs = in_.warmup[c];
        conn.warm = conn.reqs.size();
        conn.reqs.insert(conn.reqs.end(), in_.requests[c].begin(),
                         in_.requests[c].end());
        conn.replies.resize(conn.reqs.size());
        conn.lat_ms.assign(conn.reqs.size(), -1);
        r.attempted += conn.reqs.size();
    }
    try {
        r.setup += server.start(dirs_, kPoolWidth, w_.cache_bytes,
                                tracer_, parent);
        for (size_t c = 0; c < kConnections; ++c)
            conns[c].client = std::make_unique<sut::Client>(
                server.port(), sut::containerName(c % dirs_.size()));
    } catch (const std::exception &e) {
        fail(std::string("serve start: ") + e.what());
        for (const Conn &conn : conns)
            r.failed += conn.reqs.size();
        return;
    }

    // Each connection first touches its share of the regions, untimed,
    // so the round measures a warm server rather than the first decode
    // of every region; then all start together.
    std::latch warmed(kConnections), go(1);
    uint32_t round_id = 0;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            Conn &conn = conns[c];
            try {
                for (size_t i = 0; i < conn.warm; ++i) {
                    uint32_t id = conn.client->send(conn.reqs[i]);
                    conn.replies[i] = conn.client->receive();
                    if (conn.replies[i].id != id)
                        throw std::runtime_error("unmatched reply id");
                }
            } catch (const std::exception &e) {
                conn.error = e.what();
            }
            warmed.count_down();
            go.wait();
            if (!conn.error.empty())
                return;
            const std::vector<Request> &reqs = conn.reqs;
            std::vector<Clock::time_point> sent(reqs.size());
            std::unordered_map<uint32_t, size_t> inflight;
            size_t next = conn.warm;
            const double cpu0 = threadCpuSeconds();
            try {
                auto sendNext = [&] {
                    sent[next] = Clock::now();
                    inflight[conn.client->send(reqs[next])] = next;
                    ++next;
                };
                while (next < std::min(conn.warm + kDepth, reqs.size()))
                    sendNext();
                for (size_t done = conn.warm; done < reqs.size(); ++done) {
                    sut::Reply reply = conn.client->receive();
                    Clock::time_point t = Clock::now();
                    auto it = inflight.find(reply.id);
                    if (it == inflight.end())
                        throw std::runtime_error("unmatched reply id");
                    size_t i = it->second;
                    inflight.erase(it);
                    conn.lat_ms[i] = seconds(sent[i], t) * 1e3;
                    tracer_.add(tracer_.enabled() ? tracer_.nextId() : 0,
                                round_id,
                                kRequestSpan[reqs[i].seek][reqs[i].hot],
                                sent[i], t);
                    conn.replies[i] = std::move(reply);
                    if (next < reqs.size())
                        sendNext();
                }
            } catch (const std::exception &e) {
                conn.error = e.what();
            }
            conn.cpu_s = threadCpuSeconds() - cpu0;
        });
    }
    warmed.wait();
    Span round(tracer_, "serve.client.round", parent);
    round_id = round.id();
    const double cpu0 = processCpuSeconds();
    go.count_down();
    for (std::thread &t : threads)
        t.join();
    r.round.cpu_s = processCpuSeconds() - cpu0;
    for (const Conn &conn : conns)
        r.round.cpu_s -= conn.cpu_s;
    r.round.wall_s = round.end();
    try {
        r.deferred = server.admissionDeferred();
    } catch (const std::exception &e) {
        fail(std::string("stat: ") + e.what());
    }
    {
        Span stop(tracer_, "serve.server.stop", parent);
        server.stop();
    }

    // Off the clock: every payload, warm-up included, against a direct
    // cursor read of its whole region, decoded once per region.
    Span verify(tracer_, "bench.verify", parent);
    std::vector<std::unique_ptr<sut::Reference>> refs(dirs_.size());
    std::vector<std::map<uint64_t, std::vector<uint64_t>>> regions(
        dirs_.size());
    const uint64_t region = in_.geometry.lossy ? in_.geometry.interval_len
                                               : in_.geometry.buffer_addrs;
    for (size_t c = 0; c < kConnections; ++c) {
        const Conn &conn = conns[c];
        const size_t d = c % dirs_.size();
        if (!conn.error.empty())
            fail("client " + std::to_string(c) + ": " + conn.error);
        try {
            if (!refs[d])
                refs[d] = std::make_unique<sut::Reference>(dirs_[d]);
        } catch (const std::exception &e) {
            fail(std::string("reference open: ") + e.what());
            r.failed += conn.reqs.size();
            continue;
        }
        for (size_t i = 0; i < conn.reqs.size(); ++i) {
            const Request &req = conn.reqs[i];
            const sut::Reply &rep = conn.replies[i];
            if (rep.id == 0 || !rep.ok) {
                if (rep.id != 0)
                    fail("request refused: " + rep.error);
                ++r.failed;
                continue;
            }
            uint64_t begin = req.seek ? rep.pos : req.begin;
            bool ok = rep.records.size() == req.count &&
                      (in_.geometry.lossy || begin == req.begin);
            if (ok) {
                uint64_t first = begin / region * region;
                auto &cached = regions[d][first];
                try {
                    if (cached.empty())
                        cached = refs[d]->range(
                            first, std::min(first + region,
                                            in_.filtered[d].size()));
                } catch (const std::exception &e) {
                    fail(std::string("reference read: ") + e.what());
                }
                ok = begin - first + rep.records.size() <= cached.size() &&
                     std::equal(rep.records.begin(), rep.records.end(),
                                cached.begin() + (begin - first));
            }
            if (!ok) {
                fail("served payload differs from AtcCursor::readRange");
                ++r.failed;
                continue;
            }
            if (i < conn.warm)
                continue;
            r.served += rep.records.size();
            all_.push_back(conn.lat_ms[i]);
            by_class_[req.seek][req.hot].push_back(conn.lat_ms[i]);
        }
    }
}

/** Host CPU time counters from /proc/stat, in clock ticks. */
struct CpuTicks
{
    double total = 0;
    double steal = 0;
};

CpuTicks
cpuTicks()
{
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    for (int i = 0; i < 8 && in; ++i) {
        double v = 0;
        in >> v;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
peakRssMib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Median over passes of one per-pass quantity. */
template <typename F>
double
over(const std::vector<PassResult> &passes, F f)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(f(p));
    return median(v);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Print @p metrics, then @p shown_only as text lines that stay out of
 *  the JSON result, then the JSON result as the last line. */
void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics,
            const std::vector<Metric> &shown_only)
{
    for (const auto *list : {&metrics, &shown_only})
        for (const Metric &m : *list)
            std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : -1.0,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work-dir")
            a.work_dir = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.work_dir.empty() &&
           a.seconds > 0;
}

int
run(const Args &args)
{
    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (args.workload == cand.name)
            w = &cand;
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    fs::create_directories(args.work_dir);

    Inputs inputs = makeInputs(*w, args.seed);
    const double hot_share = inputs.hot_share;
    const uint64_t interval_len = inputs.geometry.interval_len;
    Runner runner(*w, args.work_dir, std::move(inputs));

    // Passes until the budget is spent and the serve sample supports a
    // p99, or a check has failed; never past kMaxPassSeconds, so the
    // process ends within three minutes. A traced run alternates traced
    // and untraced passes.
    std::vector<PassResult> plain, traced;
    const size_t min_passes = args.trace ? 4 : 3;
    // One pass first, untimed, so allocator growth, page faults and
    // thread start-up of the first run are not in any metric.
    PassResult warmup = runner.pass(false);
    runner.clearSamples();
    Clock::time_point t0 = Clock::now();
    for (size_t k = 0;; ++k) {
        bool tr = args.trace && k % 2 == 1;
        CpuTicks c0 = cpuTicks();
        PassResult &p = (tr ? traced : plain).emplace_back(runner.pass(tr));
        CpuTicks c1 = cpuTicks();
        p.steal = (c1.steal - c0.steal) / std::max(1.0, c1.total - c0.total);
        std::fprintf(stderr,
                     "pass %zu%s: wall/cpu s: setup %.4f/%.4f ingest "
                     "%.3f/%.3f replay %.3f/%.3f serve %.3f/%.3f; host "
                     "steal %.3f\n",
                     k, tr ? " (traced)" : "", p.setup.wall_s, p.setup.cpu_s,
                     p.ingest.wall_s, p.ingest.cpu_s, p.replay.wall_s,
                     p.replay.cpu_s, p.round.wall_s, p.round.cpu_s, p.steal);
        const double elapsed = seconds(t0, Clock::now());
        const bool enough = k + 1 >= min_passes &&
                            runner.all().size() >= kMinLatencySamples;
        if ((elapsed >= args.seconds && (enough || p.failed > 0)) ||
            elapsed >= kMaxPassSeconds)
            break;
    }

    uint64_t attempted = warmup.attempted, failed = warmup.failed;
    for (const auto *set : {&plain, &traced})
        for (const PassResult &p : *set) {
            attempted += p.attempted;
            failed += p.failed;
        }
    const PassResult &last = plain.back();
    std::vector<Metric> m;
    // Client latency over all timed requests. It is printed in every
    // run but bounded in none: on a shared machine it follows the
    // host's CPU steal more than the program (see README.md).
    std::vector<Metric> latency;

    auto pct = [&](const Samples &s, double p) {
        return percentile(s, p).value_or(-1.0);
    };
    for (double p : {50, 90, 99})
        latency.push_back({"serve.p" + std::to_string(int(p)) + "_ms",
                           pct(runner.all(), p), "ms"});
    if (!args.trace) {
        m.push_back({"setup_s", over(plain, [](auto &p) { return p.setup.cpu_s; }),
                     "s"});
        m.push_back({"ingest_maccess_per_cpu_s", over(plain, [](auto &p) {
                         return double(p.raw) / p.ingest.cpu_s / 1e6;
                     }),
                     "M/cpu-s"});
        m.push_back({"bpa", double(last.bytes) * 8 / double(last.filtered),
                     "bit/addr"});
        m.push_back({"replay_maddr_per_cpu_s", over(plain, [](auto &p) {
                         return double(p.replayed) / p.replay.cpu_s / 1e6;
                     }),
                     "M/cpu-s"});
        m.push_back({"serve_mrec_per_cpu_s", over(plain, [](auto &p) {
                         return double(p.served) / p.round.cpu_s / 1e6;
                     }),
                     "M/cpu-s"});
        m.push_back({"peak_rss_mib", peakRssMib(), "MiB"});
    } else {
        auto reg = [&](const char *key, double scale = 1.0) {
            return over(traced, [&](auto &p) {
                auto it = p.registry.find(key);
                return it == p.registry.end() ? 0.0 : it->second * scale;
            });
        };
        auto selfOf = [&](const char *name) {
            return over(traced, [&](auto &p) {
                auto it = p.self.by_name.find(name);
                return it == p.self.by_name.end() ? 0.0 : it->second;
            });
        };
        auto ratio = [&](auto num, auto den) {
            return over(traced, [&](auto &p) {
                double d = den(p);
                return d > 0 ? num(p) / d : 0.0;
            });
        };
        auto rv = [](const PassResult &p, const char *key) {
            auto it = p.registry.find(key);
            return it == p.registry.end() ? 0.0 : it->second;
        };
        const double us = 1e-6;
        // Records one decode_buffers tick inverse-transforms: a whole
        // buffer, or a whole chunk when chunks are shorter.
        const double unit_records =
            double(w->geometry.lossy
                       ? std::min(interval_len, w->geometry.buffer_addrs)
                       : w->geometry.buffer_addrs);

        m.push_back({"cache.filter.self_s", selfOf("cache.filter.write"),
                     "s"});
        m.push_back({"cache.filter.miss_ratio",
                     double(last.filtered) / double(last.raw), "ratio"});
        m.push_back({"atc.writer.write_s", selfOf("atc.writer.write"), "s"});
        m.push_back({"atc.writer.close_s", selfOf("atc.writer.close"), "s"});
        m.push_back({"atc.reader.read_self_s", selfOf("atc.reader.read"),
                     "s"});
        m.push_back({"atc.index.open_s", selfOf("atc.reader.open"), "s"});
        m.push_back({"atc.transform.encode_cpu_s",
                     reg("atc.transform.encode_us", us), "s"});
        m.push_back({"atc.transform.decode_cpu_s",
                     reg("atc.transform.decode_us", us), "s"});
        m.push_back({"atc.decode_waste",
                     ratio(
                         [&](auto &p) {
                             return rv(p, "atc.transform.decode_buffers") *
                                    unit_records;
                         },
                         [](auto &p) { return double(p.replayed + p.served); }),
                     "ratio"});
        m.push_back({"lossy.signature_cpu_s", reg("lossy.signature_us", us),
                     "s"});
        m.push_back({"lossy.decision_cpu_s", reg("lossy.decision_us", us),
                     "s"});
        m.push_back({"lossy.chunk_compress_cpu_s",
                     reg("lossy.chunk_compress_us", us), "s"});
        m.push_back({"lossy.chunk_decode_cpu_s",
                     reg("lossy.chunk_decode_us", us), "s"});
        m.push_back({"lossy.imitate_ratio",
                     last.intervals ? double(last.imitated) /
                                          double(last.intervals)
                                    : 0.0,
                     "ratio"});
        m.push_back({"lossy.miss_ratio_error", runner.missRatioError(),
                     "abs"});
        m.push_back({"block_cache.hit_ratio",
                     ratio([&](auto &p) { return rv(p, "cache.hits"); },
                           [&](auto &p) {
                               return rv(p, "cache.hits") +
                                      rv(p, "cache.misses");
                           }),
                     "ratio"});
        m.push_back({"block_cache.evictions", reg("cache.evictions"),
                     "count"});
        m.push_back({"block_cache.insertions", reg("cache.insertions"),
                     "count"});
        for (const char *dir : {"encode", "decode"})
            for (const char *stage : {"bwt", "mtf_rle", "entropy"}) {
                std::string key =
                    std::string("codec.") + dir + "." + stage + "_us";
                m.push_back({std::string("codec.") + dir + "." + stage +
                                 "_cpu_s",
                             reg(key.c_str(), us), "s"});
            }
        m.push_back({"codec.decode.frames", reg("codec.decode.frames"),
                     "count"});
        m.push_back({"codec.decode.raw_bytes", reg("codec.decode.raw_bytes"),
                     "B"});
        m.push_back({"codec.encode.comp_bytes",
                     reg("codec.encode.comp_bytes"), "B"});
        m.push_back({"pool.worker_busy_cpu_s", reg("pool.worker_busy_us", us),
                     "s"});
        m.push_back({"pool.queue_wait_s", reg("pool.queue_wait_us.sum", us),
                     "s"});
        m.push_back({"channel.wait_s", over(traced, [&](auto &p) {
                         return (rv(p, "channel.push_wait_us.sum") +
                                 rv(p, "channel.pop_wait_us.sum")) *
                                us;
                     }),
                     "s"});
        m.push_back({"pool.efficiency",
                     ratio([&](auto &p) {
                         return rv(p, "pool.worker_busy_us") * us;
                     },
                           [](auto &p) { return kPoolWidth * p.timed_s; }),
                     "ratio"});
        m.push_back({"io.write_bytes", reg("io.write_bytes"), "B"});
        m.push_back({"io.write_cpu_s", reg("io.write_us", us), "s"});
        m.push_back({"io.mmap_bytes", reg("io.mmap_bytes"), "B"});
        m.push_back({"io.zero_copy_share",
                     ratio([&](auto &p) { return rv(p, "io.view_bytes"); },
                           [&](auto &p) {
                               return rv(p, "codec.decode.comp_bytes");
                           }),
                     "ratio"});
        for (int seek = 0; seek < 2; ++seek)
            for (int hot = 0; hot < 2; ++hot) {
                std::string base = kRequestSpan[seek][hot];
                const Samples &s = runner.cls(seek, hot);
                m.push_back({base + ".p50_ms", pct(s, 50), "ms"});
                m.push_back({base + ".p90_ms", pct(s, 90), "ms"});
                m.push_back({base + ".count", double(s.size()), "count"});
            }
        m.push_back({"serve.hot_share", hot_share, "ratio"});
        for (const char *h : {"queue_wait", "decode", "write"}) {
            std::string key = std::string("serve.") + h + "_us";
            m.push_back({std::string("serve.") + h + "_ms",
                         ratio([&](auto &p) {
                             return rv(p, (key + ".sum").c_str()) / 1e3;
                         },
                               [&](auto &p) {
                                   return rv(p, (key + ".count").c_str());
                               }),
                         "ms"});
        }
        m.push_back({"serve.admission_deferred",
                     over(traced, [](auto &p) { return double(p.deferred); }),
                     "count"});
        for (const char *layer : {"cache", "atc", "serve", "bench"})
            m.push_back({std::string("trace.self_s.") + layer,
                         over(traced, [&](auto &p) {
                             auto it = p.self.by_layer.find(layer);
                             return it == p.self.by_layer.end() ? 0.0
                                                                : it->second;
                         }),
                         "s"});
        // Wall-clock counterparts of the CPU-based end-to-end rates, and
        // the host's steal share that explains their spread.
        m.push_back({"wall.setup_s",
                     over(traced, [](auto &p) { return p.setup.wall_s; }),
                     "s"});
        m.push_back({"wall.ingest_maccess_per_s", over(traced, [](auto &p) {
                         return double(p.raw) / p.ingest.wall_s / 1e6;
                     }),
                     "M/s"});
        m.push_back({"wall.replay_maddr_per_s", over(traced, [](auto &p) {
                         return double(p.replayed) / p.replay.wall_s / 1e6;
                     }),
                     "M/s"});
        m.push_back({"wall.serve_mrec_per_s", over(traced, [](auto &p) {
                         return double(p.served) / p.round.wall_s / 1e6;
                     }),
                     "M/s"});
        m.push_back({"host.steal_frac",
                     over(traced, [](auto &p) { return p.steal; }), "ratio"});
        m.push_back({"trace.unattributed_s",
                     over(traced,
                          [](auto &p) { return p.self.unattributed_s; }),
                     "s"});
        double base = over(plain, [](auto &p) { return p.timed_s; });
        m.push_back({"trace_overhead_frac",
                     over(traced, [](auto &p) { return p.timed_s; }) / base -
                         1.0,
                     "ratio"});

        std::string path = args.work_dir + "/trace-" + w->name + ".json";
        std::ofstream(path) << runner.tracer().chromeJson();
        std::fprintf(stderr, "chrome trace: %s\n", path.c_str());
    }
    std::fprintf(stderr,
                 "workload %s seed %llu: %zu+%zu passes, %zu latency "
                 "samples, hot share %.3f, cache budget %.0f MiB\n",
                 w->name, static_cast<unsigned long long>(args.seed),
                 plain.size(), traced.size(), runner.all().size(), hot_share,
                 double(w->cache_bytes) / (1 << 20));
    if (!percentile(runner.all(), 99).has_value()) {
        runner.fail("too few latency samples for a p99");
        ++failed;
    }
    const bool correct = failed == 0;
    if (args.trace)
        m.insert(m.end(), latency.begin(), latency.end());
    printResult(correct, attempted, failed, m,
                args.trace ? std::vector<Metric>{} : latency);
    return correct ? 0 : 1;
}

} // namespace
} // namespace atcbench

int
main(int argc, char **argv)
{
    atcbench::Args args;
    if (!atcbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: atcbench --workload lossless|lossy|serve "
                     "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
        return 2;
    }
    try {
        return atcbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "FAIL: %s\n", e.what());
        return 1;
    }
}

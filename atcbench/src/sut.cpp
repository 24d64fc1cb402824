#include "sut.hpp"

#include <stdexcept>

#include "atc/index.hpp"
#include "cache/filter.hpp"
#include "cache/stack_sim.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_atc.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/suite.hpp"

namespace atcbench::sut {

using namespace atc;

std::vector<uint64_t>
rawAccesses(const std::string &model, uint64_t seed, size_t n)
{
    trace::GeneratorPtr gen = trace::benchmarkByName(model).makeData(seed);
    std::vector<uint64_t> out(n);
    for (uint64_t &a : out)
        a = gen->next();
    return out;
}

std::vector<uint64_t>
filterSerial(const std::vector<uint64_t> &raw)
{
    std::vector<uint64_t> out;
    trace::VectorTraceSink sink(out);
    cache::FilterStage filter(sink);
    filter.write(raw.data(), raw.size());
    return out;
}

double
missRatioError(const std::vector<uint64_t> &reference,
               const std::vector<uint64_t> &approximation, uint32_t sets,
               uint32_t ways)
{
    return cache::missRatioError(reference, approximation, sets, ways);
}

std::map<std::string, double>
registrySnapshot()
{
    obs::Snapshot snap = obs::Registry::global().snapshot();
    std::map<std::string, double> out;
    for (const auto &[name, v] : snap.counters)
        out[name] = static_cast<double>(v);
    for (const auto &[name, v] : snap.gauges)
        out[name] = static_cast<double>(v);
    for (const auto &[name, h] : snap.histograms) {
        out[name + ".count"] = static_cast<double>(h.count);
        out[name + ".sum"] = static_cast<double>(h.sum);
    }
    return out;
}

Pool::Pool(size_t width)
    : pool_(std::make_unique<parallel::ThreadPool>(width))
{}

Pool::~Pool() = default;

namespace {

parallel::ParallelOptions
poolOptions(size_t width)
{
    parallel::ParallelOptions popt;
    popt.threads = width;
    return popt;
}

/** Times each hand-off from the filter to the writer, so the filter's
 *  own time is its span minus these children. */
class TimingSink : public trace::TraceSink
{
  public:
    TimingSink(trace::TraceSink &down, Tracer &tracer, uint32_t close_parent)
        : down_(down), tracer_(tracer), close_parent_(close_parent)
    {}

    void
    write(const uint64_t *vals, size_t n) override
    {
        Span s(tracer_, "atc.writer.write", parent);
        down_.write(vals, n);
    }

    void
    close() override
    {
        Span s(tracer_, "atc.writer.close", close_parent_);
        down_.close();
    }

    uint32_t parent = 0; ///< the enclosing cache.filter.write span

  private:
    trace::TraceSink &down_;
    Tracer &tracer_;
    uint32_t close_parent_;
};

} // namespace

IngestResult
ingest(const std::string &dir, const Geometry &geometry, size_t width,
       Pool &filter_pool, const std::vector<uint64_t> &raw, size_t batch,
       Tracer &tracer, uint32_t parent)
{
    core::AtcOptions opt;
    opt.mode = geometry.lossy ? core::Mode::Lossy : core::Mode::Lossless;
    opt.pipeline.buffer_addrs = geometry.buffer_addrs;
    opt.pipeline.codec_block = geometry.codec_block;
    if (geometry.lossy)
        opt.lossy.interval_len = geometry.interval_len;

    IngestResult res;
    Span open(tracer, "atc.writer.open", parent);
    double cpu0 = threadCpuSeconds();
    std::unique_ptr<parallel::ParallelAtcWriter> writer =
        parallel::ParallelAtcWriter::open(dir, opt, poolOptions(width))
            .take();
    res.setup.cpu_s = threadCpuSeconds() - cpu0;
    res.setup.wall_s = open.end();

    cpu0 = processCpuSeconds();
    Clock::time_point t0 = Clock::now();
    TimingSink sink(*writer, tracer, parent);
    cache::FilterStage filter(sink);
    filter.shard(filter_pool.get());
    for (size_t i = 0; i < raw.size(); i += batch) {
        Span s(tracer, "cache.filter.write", parent);
        sink.parent = s.id();
        filter.write(raw.data() + i, std::min(batch, raw.size() - i));
    }
    filter.close();
    res.ingest.wall_s = seconds(t0, Clock::now());
    res.ingest.cpu_s = processCpuSeconds() - cpu0;
    if (geometry.lossy) {
        res.intervals = writer->lossyStats().intervals;
        res.imitated = writer->lossyStats().imitated;
    }
    return res;
}

ReplayResult
replay(const std::string &dir, size_t width, std::vector<uint64_t> &out,
       Tracer &tracer, uint32_t parent)
{
    ReplayResult res;
    Span open(tracer, "atc.reader.open", parent);
    double cpu0 = threadCpuSeconds();
    std::unique_ptr<parallel::ParallelAtcReader> reader =
        parallel::ParallelAtcReader::open(dir, poolOptions(width)).take();
    res.setup.cpu_s = threadCpuSeconds() - cpu0;
    res.setup.wall_s = open.end();

    // Sized before the clock starts: the consumer only stores.
    constexpr size_t kBatch = 1 << 16;
    out.resize(reader->count() + kBatch);
    size_t got = 0;
    cpu0 = processCpuSeconds();
    Clock::time_point t0 = Clock::now();
    for (;;) {
        if (out.size() < got + kBatch)
            throw std::runtime_error("reader returned more than its count");
        Span s(tracer, "atc.reader.read", parent);
        size_t n = reader->tryRead(out.data() + got, kBatch).take();
        if (n == 0)
            break;
        got += n;
    }
    res.replay.wall_s = seconds(t0, Clock::now());
    res.replay.cpu_s = processCpuSeconds() - cpu0;
    out.resize(got);
    return res;
}

Reference::Reference(const std::string &dir)
    : index_(core::AtcIndex::open(dir).take()), cursor_(index_->cursor())
{}

Reference::~Reference() = default;

std::vector<uint64_t>
Reference::range(uint64_t begin, uint64_t end)
{
    std::vector<uint64_t> out;
    cursor_->readRange(begin, end, out).orThrow();
    return out;
}

std::string
containerName(size_t i)
{
    std::string name = "c";
    name += std::to_string(i);
    return name;
}

Server::Server() = default;

Server::~Server() { stop(); }

Timing
Server::start(const std::vector<std::string> &dirs, size_t width,
              uint64_t cache_bytes, Tracer &tracer, uint32_t parent)
{
    serve::ServeOptions sopt;
    sopt.threads = width;
    sopt.cache_bytes = cache_bytes;
    server_ = std::make_unique<serve::TraceServer>(sopt);
    for (size_t i = 0; i < dirs.size(); ++i)
        server_->addContainer(containerName(i), dirs[i]).orThrow();
    Span s(tracer, "serve.server.start", parent);
    double cpu0 = threadCpuSeconds();
    server_->start().orThrow();
    Timing t;
    t.cpu_s = threadCpuSeconds() - cpu0;
    t.wall_s = s.end();
    return t;
}

uint16_t
Server::port() const
{
    return server_->port();
}

uint64_t
Server::admissionDeferred() const
{
    auto stat = serve::ServeClient::parseStat(server_->statText());
    return stat["server.admission_deferred"];
}

void
Server::stop()
{
    if (server_)
        server_->stop();
}

Client::Client(uint16_t port, const std::string &container)
    : client_(std::make_unique<serve::ServeClient>(
          serve::ServeClient::connect("127.0.0.1", port).take()))
{
    handle_ = client_->open(container).take().handle;
}

Client::~Client() = default;

uint32_t
Client::send(const Request &r)
{
    return r.seek ? client_->sendSeekRead(handle_, r.begin, r.count).take()
                  : client_->sendReadRange(handle_, r.begin,
                                           r.begin + r.count)
                        .take();
}

Reply
Client::receive()
{
    serve::ClientResponse resp;
    client_->receive(resp).orThrow();
    Reply out;
    out.id = resp.request_id;
    out.ok = resp.status == serve::Wire::kOk;
    out.error = resp.error;
    out.pos = resp.op == serve::Op::Seek ? resp.actual_pos : 0;
    out.records = std::move(resp.records);
    return out;
}

} // namespace atcbench::sut

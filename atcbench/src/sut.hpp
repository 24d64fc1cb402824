/**
 * @file
 * The system under test, as the benchmark sees it.
 *
 * This header and sut.cpp are the benchmark's only contact with the
 * library (src/): every writer, reader, index, server, client, filter
 * and registry call goes through the functions below, so a change to
 * those public entry points needs a change here and nowhere else.
 * Each call that a metric times is wrapped in a Span here, at the
 * layer boundary, and library failures surface as exceptions that the
 * caller counts as failed operations.
 */

#ifndef ATCBENCH_SUT_HPP_
#define ATCBENCH_SUT_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "measure.hpp"

namespace atc::core {
class AtcIndex;
class AtcCursor;
} // namespace atc::core
namespace atc::parallel {
class ThreadPool;
} // namespace atc::parallel
namespace atc::serve {
class TraceServer;
class ServeClient;
} // namespace atc::serve

namespace atcbench::sut {

/** Container mode and geometry of one workload. */
struct Geometry
{
    bool lossy = false;
    uint64_t buffer_addrs = 0; ///< bytesort buffer B in addresses
    uint64_t codec_block = 0;  ///< codec block in bytes
    uint64_t interval_len = 0; ///< lossy interval length L
};

/** @return @p n raw data-access byte addresses of suite model @p model. */
std::vector<uint64_t> rawAccesses(const std::string &model, uint64_t seed,
                                  size_t n);

/** @return the paper-L1 D-cache miss stream of @p raw, filtered serially
 *  (the reference the replayed containers are checked against). */
std::vector<uint64_t> filterSerial(const std::vector<uint64_t> &raw);

/** Largest LRU miss-ratio difference over 1..@p ways ways at @p sets. */
double missRatioError(const std::vector<uint64_t> &reference,
                      const std::vector<uint64_t> &approximation,
                      uint32_t sets, uint32_t ways);

/** Flat view of the library's metrics registry: counters and gauges by
 *  name, histograms as `<name>.count` and `<name>.sum` (microseconds). */
std::map<std::string, double> registrySnapshot();

/** A thread pool of the library, lent to the sharded cache filter. */
class Pool
{
  public:
    explicit Pool(size_t width);
    ~Pool();
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;
    atc::parallel::ThreadPool &get() { return *pool_; }

  private:
    std::unique_ptr<atc::parallel::ThreadPool> pool_;
};

struct IngestResult
{
    /** Writer construction; CPU of the calling thread. */
    Timing setup;
    /** First filter write to sealed container; CPU of the process. */
    Timing ingest;
    uint64_t intervals = 0;
    uint64_t imitated = 0;
};

/**
 * Push @p raw through a FilterStage sharded on @p filter_pool into a
 * writer of pool width @p width at directory @p dir, in batches of
 * @p batch, and seal it. Spans: atc.writer.open, cache.filter.write
 * with its atc.writer.write children, atc.writer.close.
 */
IngestResult ingest(const std::string &dir, const Geometry &geometry,
                    size_t width, Pool &filter_pool,
                    const std::vector<uint64_t> &raw, size_t batch,
                    Tracer &tracer, uint32_t parent);

struct ReplayResult
{
    /** Reader construction (frame-index scan); CPU of the calling
     *  thread. */
    Timing setup;
    /** First read() to end of stream; CPU of the process. */
    Timing replay;
};

/** Read container @p dir in full into @p out with a reader of pool
 *  width @p width. Spans: atc.reader.open, atc.reader.read. */
ReplayResult replay(const std::string &dir, size_t width,
                    std::vector<uint64_t> &out, Tracer &tracer,
                    uint32_t parent);

/** Direct record-exact reads through AtcIndex/AtcCursor. */
class Reference
{
  public:
    explicit Reference(const std::string &dir);
    ~Reference();
    Reference(const Reference &) = delete;
    Reference &operator=(const Reference &) = delete;

    /** @return records [@p begin, @p end) via AtcCursor::readRange. */
    std::vector<uint64_t> range(uint64_t begin, uint64_t end);

  private:
    std::shared_ptr<const atc::core::AtcIndex> index_;
    std::unique_ptr<atc::core::AtcCursor> cursor_;
};

/** @return the name the server gives the @p i-th container ("c<i>"). */
std::string containerName(size_t i);

/** An in-process TraceServer over container directories. */
class Server
{
  public:
    Server();
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Serve @p dirs as containerName(0), containerName(1), ... with
     * @p width workers and a decoded-block cache of @p cache_bytes.
     * @return the time of TraceServer::start (span serve.server.start);
     * CPU of the calling thread
     */
    Timing start(const std::vector<std::string> &dirs, size_t width,
                 uint64_t cache_bytes, Tracer &tracer, uint32_t parent);

    uint16_t port() const;

    /** @return the STAT counter server.admission_deferred. */
    uint64_t admissionDeferred() const;

    void stop();

  private:
    std::unique_ptr<atc::serve::TraceServer> server_;
};

/** A reply to one pipelined request. */
struct Reply
{
    uint32_t id = 0;
    bool ok = false;
    std::string error;
    uint64_t pos = 0; ///< where a SEEK landed
    std::vector<uint64_t> records;
};

/** One client connection (a ServeClient). */
class Client
{
  public:
    Client(uint16_t port, const std::string &container);
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send @p r without waiting. @return its request id. */
    uint32_t send(const Request &r);

    /** Block for the next reply. */
    Reply receive();

  private:
    std::unique_ptr<atc::serve::ServeClient> client_;
    uint32_t handle_ = 0;
};

} // namespace atcbench::sut

#endif // ATCBENCH_SUT_HPP_

/**
 * @file
 * atcserved: the trace-serving daemon CLI.
 *
 * Serves one or more ATC container directories over the loopback
 * binary protocol (docs/protocol.md). Each NAME=DIR argument maps a
 * wire-visible container name to a container directory; clients OPEN
 * by name and then SEEK / READ_RANGE records through shared
 * decoded-record caches.
 *
 * Usage: atcserved [options] NAME=DIR [NAME=DIR ...]
 *   --port N         listen port (default 0 = kernel-assigned)
 *   --port-file PATH write the bound port to PATH (for scripts that
 *                    start with --port 0)
 *   --threads N      worker threads (default: hardware concurrency)
 *   --cache BYTES    global decoded-record cache budget, split evenly
 *                    across containers
 *   --max-inflight N heavy requests one client may have executing
 *   --max-range N    per-request record ceiling (kTooLarge beyond it)
 *   --log-level L    structured stderr logging: off (default), info
 *                    (session lifecycle + non-ok requests), debug
 *                    (every request)
 *   --io {mmap,stdio} chunk-file read path for the served containers:
 *                    mmap decodes borrowed mapped bytes zero-copy
 *                    (default), stdio forces buffered reads
 *   --metrics-json PATH on exit, dump the obs registry snapshot to
 *                    PATH as JSON (see docs/metrics.md)
 *
 * The daemon runs until SIGINT/SIGTERM or a client SHUTDOWN op, then
 * tears down cleanly and exits 0.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/mmap.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--port N] [--port-file PATH] [--threads N]"
                 " [--cache BYTES]\n"
                 "          [--max-inflight N] [--max-range N]"
                 " [--log-level off|info|debug]\n"
                 "          [--io mmap|stdio] [--metrics-json PATH]"
                 " NAME=DIR [NAME=DIR ...]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace atc;

    serve::ServeOptions opt;
    std::string port_file;
    std::string metrics_json;
    std::vector<std::pair<std::string, std::string>> mappings;

    for (int i = 1; i < argc; ++i) {
        auto intArg = [&](const char *flag, long long &out) -> bool {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            out = std::atoll(argv[++i]);
            return true;
        };
        long long v = 0;
        if (intArg("--port", v))
            opt.port = static_cast<uint16_t>(v);
        else if (intArg("--threads", v))
            opt.threads = static_cast<size_t>(v);
        else if (intArg("--cache", v))
            opt.cache_bytes = static_cast<size_t>(v);
        else if (intArg("--max-inflight", v))
            opt.max_inflight_per_client = static_cast<uint32_t>(v);
        else if (intArg("--max-range", v))
            opt.max_range_records = static_cast<uint64_t>(v);
        else if (std::strcmp(argv[i], "--port-file") == 0) {
            if (i + 1 >= argc)
                return usage(argv[0]);
            port_file = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
            if (i + 1 >= argc)
                return usage(argv[0]);
            metrics_json = argv[++i];
        } else if (std::strcmp(argv[i], "--io") == 0) {
            util::IoMode io;
            if (i + 1 >= argc || !util::parseIoMode(argv[++i], io)) {
                std::fprintf(stderr, "--io must be mmap or stdio\n");
                return 2;
            }
            util::setDefaultIoMode(io);
        } else if (std::strcmp(argv[i], "--log-level") == 0) {
            if (i + 1 >= argc)
                return usage(argv[0]);
            const char *level = argv[++i];
            if (std::strcmp(level, "off") == 0)
                opt.log_level = serve::LogLevel::kOff;
            else if (std::strcmp(level, "info") == 0)
                opt.log_level = serve::LogLevel::kInfo;
            else if (std::strcmp(level, "debug") == 0)
                opt.log_level = serve::LogLevel::kDebug;
            else {
                std::fprintf(stderr,
                             "--log-level must be off, info, or debug\n");
                return 2;
            }
        } else {
            const char *eq = std::strchr(argv[i], '=');
            if (eq == nullptr || eq == argv[i] || eq[1] == '\0')
                return usage(argv[0]);
            mappings.emplace_back(
                std::string(argv[i], static_cast<size_t>(eq - argv[i])),
                std::string(eq + 1));
        }
    }
    if (mappings.empty())
        return usage(argv[0]);

    serve::TraceServer server(opt);
    for (const auto &[name, dir] : mappings) {
        util::Status st = server.addContainer(name, dir);
        if (!st.ok()) {
            std::fprintf(stderr, "error: %s\n", st.message().c_str());
            return 1;
        }
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    util::Status st = server.start();
    if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.message().c_str());
        return 1;
    }
    std::printf("atcserved listening on 127.0.0.1:%u (%zu container%s)\n",
                unsigned(server.port()), mappings.size(),
                mappings.size() == 1 ? "" : "s");
    std::fflush(stdout);

    if (!port_file.empty()) {
        std::FILE *f = std::fopen(port_file.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         port_file.c_str());
            return 1;
        }
        std::fprintf(f, "%u\n", unsigned(server.port()));
        std::fclose(f);
    }

    // Poll so signal delivery is noticed promptly; waitFor returns
    // true the moment a client SHUTDOWN (or requestStop) lands.
    while (!g_stop && !server.waitFor(200)) {
    }
    server.stop();
    if (!metrics_json.empty() &&
        !obs::writeMetricsJson(metrics_json))
        std::fprintf(stderr, "warning: cannot write %s\n",
                     metrics_json.c_str());
    std::printf("atcserved: clean shutdown\n");
    return 0;
}

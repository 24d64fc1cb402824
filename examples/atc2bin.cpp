/**
 * @file
 * CLI mirroring the paper's Figure 7: read an ATC-compressed directory
 * and write the (regenerated) trace as raw 64-bit values on standard
 * output. The chunk suffix is auto-detected from INFO.<suffix>.
 *
 * Usage: atc2bin [-j N] [--container-version V]
 *                [--range BEGIN:END]... <dirname>
 *   -j N  decode with N worker threads; on v3 containers the lossless
 *         stream is decoded block-parallel (seekable frames)
 *   --container-version V
 *         require the input container to be format version V and fail
 *         otherwise — a guard for scripts that depend on v3's
 *         parallel-decode layout
 *   --range BEGIN:END
 *         emit only the records [BEGIN, END) instead of the whole
 *         trace, decoded through the random-access cursor (on v3 only
 *         the frames covering the slice are decoded; with -j their
 *         decode fans out on the thread pool). May repeat; ranges must
 *         be in increasing order and non-overlapping. Malformed,
 *         overlapping or out-of-range specs are rejected up front.
 *   --cache BYTES[k|m|g]
 *         budget of the shared decoded-record cache backing seeks and
 *         ranges (default 256m, 0 disables); repeated --range specs
 *         over one working set decode each covering buffer/chunk once
 *   --io {mmap,stdio}
 *         chunk-file read path: mmap maps regular files and decodes
 *         borrowed bytes zero-copy (default), stdio forces the
 *         buffered-read fallback every input supports
 *   --metrics-json PATH
 *         before exiting, dump the obs registry snapshot (decode stage
 *         timings, cache and I/O counters) to PATH as JSON (see
 *         docs/metrics.md)
 *
 * Example (paper Figure 8):
 *   atc2bin -j 4 foobar | wc -c
 *   atc2bin --cache 128m --range 10000000:11000000 foobar > slice.bin
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atc/atc.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_atc.hpp"
#include "util/mmap.hpp"

namespace {

/**
 * Parse one BEGIN:END range spec. Returns an error Status — never
 * throws — on anything other than two full decimal numbers with
 * BEGIN <= END.
 */
atc::util::Status
parseRange(const char *spec, std::pair<uint64_t, uint64_t> &out)
{
    const std::string text(spec);
    char *end = nullptr;
    uint64_t begin = std::strtoull(spec, &end, 10);
    if (end == spec || *end != ':')
        return atc::util::Status::error("bad range spec '" + text +
                                        "' (expected BEGIN:END)");
    const char *second = end + 1;
    uint64_t stop = std::strtoull(second, &end, 10);
    if (end == second || *end != '\0')
        return atc::util::Status::error("bad range spec '" + text +
                                        "' (expected BEGIN:END)");
    if (begin > stop)
        return atc::util::Status::error(
            "bad range spec '" + text + "' (BEGIN exceeds END)");
    out = {begin, stop};
    return atc::util::Status();
}

/** Parse a byte count with an optional k/m/g binary suffix. */
bool
parseSize(const char *text, size_t &out)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text)
        return false;
    switch (*end) {
    case 'k': v <<= 10; ++end; break;
    case 'm': v <<= 20; ++end; break;
    case 'g': v <<= 30; ++end; break;
    default: break;
    }
    if (*end != '\0')
        return false;
    out = static_cast<size_t>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace atc;

    size_t threads = 1;
    size_t cache_bytes = core::kDefaultDecodedCacheBytes;
    long expect_version = 0; // 0 = accept any
    std::string metrics_json;
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    const char *dir = nullptr;
    bool bad_args = false;
    // Both exit paths (range extraction and streaming decode) funnel
    // through this before returning success.
    auto finish = [&metrics_json]() -> int {
        if (!metrics_json.empty() &&
            !obs::writeMetricsJson(metrics_json)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         metrics_json.c_str());
            return 1;
        }
        return 0;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics-json") == 0) {
            if (i + 1 >= argc)
                bad_args = true;
            else
                metrics_json = argv[++i];
        } else if (std::strcmp(argv[i], "-j") == 0 ||
            std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 >= argc)
                bad_args = true;
            else
                threads = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strncmp(argv[i], "-j", 2) == 0 &&
                   argv[i][2] != '\0') {
            threads = std::strtoull(argv[i] + 2, nullptr, 10);
        } else if (std::strcmp(argv[i], "--range") == 0) {
            if (i + 1 >= argc) {
                bad_args = true;
            } else {
                std::pair<uint64_t, uint64_t> range;
                util::Status s = parseRange(argv[++i], range);
                if (!s.ok()) {
                    std::fprintf(stderr, "error: %s\n",
                                 s.message().c_str());
                    return 1;
                }
                if (!ranges.empty() && range.first < ranges.back().second) {
                    std::fprintf(stderr,
                                 "error: range %llu:%llu overlaps or "
                                 "reorders the previous range\n",
                                 static_cast<unsigned long long>(
                                     range.first),
                                 static_cast<unsigned long long>(
                                     range.second));
                    return 1;
                }
                ranges.push_back(range);
            }
        } else if (std::strcmp(argv[i], "--cache") == 0) {
            if (i + 1 >= argc || !parseSize(argv[++i], cache_bytes))
                bad_args = true;
        } else if (std::strcmp(argv[i], "--io") == 0) {
            util::IoMode io;
            if (i + 1 >= argc || !util::parseIoMode(argv[++i], io))
                bad_args = true;
            else
                util::setDefaultIoMode(io);
        } else if (std::strcmp(argv[i], "--container-version") == 0) {
            if (i + 1 >= argc) {
                bad_args = true;
            } else {
                char *end = nullptr;
                expect_version = std::strtol(argv[++i], &end, 10);
                // Garbage or out-of-range must not silently disable
                // the guard this flag exists to provide.
                if (end == argv[i] || *end != '\0' ||
                    expect_version < core::kMinContainerVersion ||
                    expect_version > core::kContainerVersion)
                    bad_args = true;
            }
        } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            bad_args = true; // unknown option, not a directory
        } else {
            dir = argv[i];
        }
    }
    if (dir == nullptr || bad_args) {
        std::fprintf(stderr,
                     "usage: %s [-j N] [--container-version V] "
                     "[--cache BYTES[k|m|g]] [--io mmap|stdio] "
                     "[--metrics-json PATH] "
                     "[--range BEGIN:END]... <dirname>\n",
                     argv[0]);
        return 2;
    }

    if (!ranges.empty()) {
        // Random-access extraction: open the index directly (no
        // streaming reader — that would start decoding the whole
        // trace in the background) and run one readRange per spec.
        // Out-of-range specs come back as a Status from the cursor.
        core::IndexOptions iopt;
        iopt.cache_bytes = cache_bytes;
        auto index = core::AtcIndex::open(dir, iopt);
        if (!index.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         index.status().message().c_str());
            return 1;
        }
        if (expect_version != 0 &&
            index.value()->version() != expect_version) {
            std::fprintf(stderr,
                         "error: container is format v%d, expected "
                         "v%ld\n",
                         int(index.value()->version()), expect_version);
            return 1;
        }
        std::unique_ptr<parallel::ThreadPool> pool;
        core::CursorOptions copt;
        if (threads > 1) {
            pool = std::make_unique<parallel::ThreadPool>(threads);
            copt.pool = pool.get();
        }
        auto cursor = index.value()->cursor(copt);
        std::vector<uint64_t> slice;
        for (const auto &[begin, stop] : ranges) {
            util::Status s = cursor->readRange(begin, stop, slice);
            if (!s.ok()) {
                std::fprintf(stderr, "error: %s\n",
                             s.message().c_str());
                return 1;
            }
            if (!slice.empty() &&
                std::fwrite(slice.data(), sizeof(uint64_t),
                            slice.size(), stdout) != slice.size()) {
                std::fprintf(stderr, "write error\n");
                return 1;
            }
        }
        return finish();
    }

    std::unique_ptr<core::AtcReader> serial;
    std::unique_ptr<parallel::ParallelAtcReader> par;
    if (threads > 1) {
        parallel::ParallelOptions popt;
        popt.threads = threads;
        popt.cache_bytes = cache_bytes;
        auto opened = parallel::ParallelAtcReader::open(dir, popt);
        if (!opened.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         opened.status().message().c_str());
            return 1;
        }
        par = opened.take();
    } else {
        auto opened = core::AtcReader::open(dir, cache_bytes);
        if (!opened.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         opened.status().message().c_str());
            return 1;
        }
        serial = opened.take();
    }

    if (expect_version != 0) {
        uint8_t got = par ? par->containerVersion()
                          : serial->containerVersion();
        if (got != expect_version) {
            std::fprintf(stderr,
                         "error: container is format v%d, expected "
                         "v%ld\n",
                         int(got), expect_version);
            return 1;
        }
    }

    std::vector<uint64_t> batch(1 << 16);
    for (;;) {
        auto got = par ? par->tryRead(batch.data(), batch.size())
                       : serial->tryRead(batch.data(), batch.size());
        if (!got.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         got.status().message().c_str());
            return 1;
        }
        if (got.value() == 0)
            break;
        if (std::fwrite(batch.data(), sizeof(uint64_t), got.value(),
                        stdout) != got.value()) {
            std::fprintf(stderr, "write error\n");
            return 1;
        }
    }
    return finish();
}

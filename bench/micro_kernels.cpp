/**
 * @file
 * Microbenchmarks for the computational kernels: SA-IS/BWT, MTF, RLE,
 * the byte-plane histograms behind lossy signatures, bytesort, the
 * cache filter and the stack simulator. These are the knobs behind
 * Table 2's throughput numbers and the targets of the hot-loop tuning.
 * The `*_trace` rows (and crc32) run on the bytesort planes of a
 * cache-filtered suite trace, the run-heavy input the codec sees in
 * the ATC pipeline; the text rows hide that behaviour.
 *
 * Self-contained: timed with bench_common's bestOfK (steady clock,
 * best of 3 after an untimed warm-up) and emitted in the shared JSON
 * shape so the CI perf-trajectory job archives kernel throughput next
 * to parallel_throughput.json.
 *
 * Usage: micro_kernels [json-path]
 *   json-path  output file (default micro_kernels.json)
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "atc/bytesort.hpp"
#include "atc/histogram.hpp"
#include "atc/lossy.hpp"
#include "bench_common.hpp"
#include "cache/filter.hpp"
#include "cache/stack_sim.hpp"
#include "compress/bwt.hpp"
#include "compress/codec.hpp"
#include "compress/rle.hpp"
#include "compress/stream.hpp"
#include "trace/suite.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace atc;

std::vector<uint8_t>
textLike(size_t n)
{
    util::Rng rng(1);
    std::vector<uint8_t> data(n);
    for (auto &b : data)
        b = static_cast<uint8_t>('a' + rng.below(26));
    return data;
}

std::vector<uint64_t>
addressLike(size_t n)
{
    util::Rng rng(2);
    std::vector<uint64_t> addrs(n);
    uint64_t base = 0x10000000;
    for (auto &a : addrs) {
        if (rng.below(8) == 0)
            base = 0x10000000 + (rng.below(16) << 26);
        a = base + rng.below(1 << 18);
    }
    return addrs;
}

struct Row
{
    std::string kernel;
    size_t n;       ///< items processed per run (bytes or addresses)
    double secs;    ///< best-of-k wall-clock seconds for one run
    double m_per_s; ///< items per second, in millions
};

/** Time @p fn (best of 3) over @p n items and record one row. */
template <typename Fn>
void
runKernel(std::vector<Row> &rows, const char *name, size_t n, Fn &&fn)
{
    double secs = bench::bestOfK(3, fn);
    rows.push_back(
        {name, n, secs, static_cast<double>(n) / secs / 1e6});
    std::fprintf(stderr, "  %-22s %8.4fs  %9.3f M/s\n", name, secs,
                 rows.back().m_per_s);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = argc > 1 ? argv[1] : "micro_kernels.json";

    const size_t kBytes = bench::scaledLen(1 << 20);
    const size_t kAddrs = bench::scaledLen(1'000'000);
    auto text = textLike(kBytes);
    auto addrs = addressLike(kAddrs);
    std::fprintf(stderr, "kernels: %zu bytes text, %zu addresses\n",
                 kBytes, kAddrs);

    std::vector<Row> rows;

    // BWT round trip (SA-IS construction dominates the forward pass).
    auto bwt = comp::bwtForward(text.data(), text.size());
    runKernel(rows, "bwt_forward", kBytes, [&] {
        auto r = comp::bwtForward(text.data(), text.size());
        if (r.data.size() != text.size())
            std::abort();
    });
    runKernel(rows, "bwt_inverse", kBytes, [&] {
        auto inv =
            comp::bwtInverse(bwt.data.data(), bwt.data.size(), bwt.primary);
        if (inv.size() != text.size())
            std::abort();
    });

    // MTF + RLE over the BWT output — the shape they see in the codec.
    // Each direction is one fused pass (BWT output <-> symbols).
    std::vector<uint64_t> freq(comp::kRleAlphabet, 0);
    auto rle = comp::mtfRleEncode(bwt.data.data(), bwt.data.size(),
                                  freq.data());
    runKernel(rows, "mtf_rle_encode", kBytes, [&] {
        std::vector<uint64_t> f(comp::kRleAlphabet, 0);
        auto enc =
            comp::mtfRleEncode(bwt.data.data(), bwt.data.size(), f.data());
        if (enc.size() != rle.size())
            std::abort();
    });
    runKernel(rows, "rle_mtf_decode", kBytes, [&] {
        auto dec = comp::rleMtfDecode(rle, kBytes);
        if (dec != bwt.data)
            std::abort();
    });

    // Lossy-path address kernels: the per-interval byte histograms and
    // the full signature (histograms + per-plane sort).
    runKernel(rows, "histogram", kAddrs, [&] {
        auto h = core::computeHistograms(addrs.data(), addrs.size());
        if (h.len != addrs.size())
            std::abort();
    });
    runKernel(rows, "lossy_signature", kAddrs, [&] {
        auto sig =
            core::LossyEncoder::signatureOf(addrs.data(), addrs.size());
        if (sig.hist.len != addrs.size())
            std::abort();
    });

    // Bytesort transform round trip.
    auto planes = core::bytesortForward(addrs.data(), addrs.size());
    runKernel(rows, "bytesort_forward", kAddrs, [&] {
        auto p = core::bytesortForward(addrs.data(), addrs.size());
        if (p.size() != planes.size())
            std::abort();
    });
    runKernel(rows, "bytesort_inverse", kAddrs, [&] {
        auto back = core::bytesortInverse(planes.data(), addrs.size());
        if (back.size() != addrs.size())
            std::abort();
    });

    // Cache-side kernels.
    runKernel(rows, "cache_filter", kAddrs, [&] {
        cache::CacheFilter filter;
        uint64_t emitted = 0;
        for (uint64_t a : addrs)
            emitted += filter.access(a, false).has_value();
        if (emitted == 0)
            std::abort();
    });
    runKernel(rows, "stack_sim", kAddrs, [&] {
        cache::StackSimulator sim(1024, 32);
        for (uint64_t a : addrs)
            sim.access(a >> 6);
        if (sim.missCount(8) == 0)
            std::abort();
    });

    // End-to-end codec reference points.
    const auto &codec = comp::codecByName("bwc");
    auto compressed = comp::compressAll(codec, text.data(), text.size());
    runKernel(rows, "bwc_compress", kBytes, [&] {
        auto c = comp::compressAll(codec, text.data(), text.size());
        if (c.size() != compressed.size())
            std::abort();
    });
    runKernel(rows, "bwc_decompress", kBytes, [&] {
        auto d =
            comp::decompressAll(codec, compressed.data(), compressed.size());
        if (d.size() != text.size())
            std::abort();
    });

    // Trace-shaped codec input: the bytesort planes of a filtered
    // suite trace, one default-size codec block.
    auto filtered = trace::collectFilteredTrace(
        trace::benchmarkByName("429.mcf"), kBytes / 8, 1);
    auto trace_planes =
        core::bytesortForward(filtered.data(), filtered.size());
    const size_t kPlaneBytes = trace_planes.size();
    auto trace_bwt = comp::bwtForward(trace_planes.data(), kPlaneBytes);
    runKernel(rows, "bwt_forward_trace", kPlaneBytes, [&] {
        auto r = comp::bwtForward(trace_planes.data(), kPlaneBytes);
        if (r.primary != trace_bwt.primary)
            std::abort();
    });
    runKernel(rows, "bwt_inverse_trace", kPlaneBytes, [&] {
        auto inv = comp::bwtInverse(trace_bwt.data.data(), kPlaneBytes,
                                    trace_bwt.primary);
        if (inv != trace_planes)
            std::abort();
    });
    auto trace_compressed =
        comp::compressAll(codec, trace_planes.data(), kPlaneBytes);
    runKernel(rows, "bwc_compress_trace", kPlaneBytes, [&] {
        auto c = comp::compressAll(codec, trace_planes.data(), kPlaneBytes);
        if (c.size() != trace_compressed.size())
            std::abort();
    });
    runKernel(rows, "bwc_decompress_trace", kPlaneBytes, [&] {
        auto d = comp::decompressAll(codec, trace_compressed.data(),
                                     trace_compressed.size());
        if (d.size() != kPlaneBytes)
            std::abort();
    });
    const uint32_t plane_crc = util::crc32(trace_planes.data(), kPlaneBytes);
    runKernel(rows, "crc32", kPlaneBytes, [&] {
        if (util::crc32(trace_planes.data(), kPlaneBytes) != plane_crc)
            std::abort();
    });

    std::FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n  \"benchmark\": \"micro_kernels\",\n"
                 "  \"cores\": %u,\n  \"results\": [\n",
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(json,
                     "    {\"kernel\": \"%s\", \"items\": %zu, "
                     "\"seconds\": %.5f, \"mitems_per_s\": %.3f}%s\n",
                     r.kernel.c_str(), r.n, r.secs, r.m_per_s,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}

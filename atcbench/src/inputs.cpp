#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace atcbench {

uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
deriveSeed(uint64_t seed, uint64_t salt)
{
    uint64_t state = seed ^ (salt * 0xD1B54A32D192ED03ull);
    splitmix(state);
    return splitmix(state);
}

namespace {

double
unit(uint64_t &state)
{
    return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

/** Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular). */
class Zipf
{
  public:
    Zipf(size_t n, double s) : cdf_(n)
    {
        double total = 0;
        for (size_t k = 0; k < n; ++k) {
            total += std::pow(static_cast<double>(k + 1), -s);
            cdf_[k] = total;
        }
        for (double &c : cdf_)
            c /= total;
    }

    /** @return the rank whose CDF interval holds @p u in [0,1). */
    size_t
    rank(double u) const
    {
        auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
};

} // namespace

namespace {

/** Whole regions of @p plan (at least one) and the length of each. */
std::pair<uint64_t, uint64_t>
wholeRegions(const RequestPlan &plan)
{
    return {std::max<uint64_t>(plan.records / plan.region, 1),
            std::min(plan.region, plan.records)};
}

} // namespace

std::vector<Request>
warmupRequests(const RequestPlan &plan, size_t part, size_t parts)
{
    const auto [regions, region_len] = wholeRegions(plan);
    std::vector<Request> out;
    for (uint64_t r = part; r < regions; r += parts) {
        Request req;
        req.begin = r * plan.region;
        req.count = static_cast<uint32_t>(
            std::min<uint64_t>(plan.count, region_len));
        out.push_back(req);
    }
    return out;
}

std::vector<Request>
makeRequests(const RequestPlan &plan, uint64_t seed, size_t conn, size_t n)
{
    // Only whole regions are requested, so every request costs the
    // same decode unit whatever the seed.
    const auto [regions, region_len] = wholeRegions(plan);
    // One permutation per run, shared by every connection, so all
    // connections agree on which regions are hot.
    uint64_t perm_state = deriveSeed(seed, 0x5045524D);
    std::vector<uint64_t> by_rank(regions);
    std::iota(by_rank.begin(), by_rank.end(), 0);
    for (uint64_t i = regions; i > 1; --i)
        std::swap(by_rank[i - 1], by_rank[splitmix(perm_state) % i]);

    // Ranks come from a golden-ratio sequence with a seeded start,
    // then the order is shuffled: each rank's share of the requests
    // matches its Zipf mass to within a few over n, so the hot/cold
    // mix does not drift from seed to seed.
    Zipf zipf(regions, plan.zipf_s);
    uint64_t state = deriveSeed(seed, 0x52455100 + conn);
    const double u0 = unit(state);
    std::vector<Request> out(n);
    for (size_t i = 0; i < n; ++i) {
        double u = u0 + 0.6180339887498949 * static_cast<double>(i);
        size_t rank = zipf.rank(u - std::floor(u));
        Request &r = out[i];
        r.count = static_cast<uint32_t>(std::min<uint64_t>(plan.count, region_len));
        r.begin = by_rank[rank] * plan.region +
                  splitmix(state) % (region_len - r.count + 1);
        r.seek = splitmix(state) & 1;
        r.hot = rank < plan.hot_regions;
    }
    for (size_t i = n; i > 1; --i)
        std::swap(out[i - 1], out[splitmix(state) % i]);
    return out;
}

} // namespace atcbench

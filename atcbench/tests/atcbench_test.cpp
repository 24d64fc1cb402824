/**
 * @file
 * Unit tests of the benchmark's own logic: the percentile rule, the
 * median, span self times, and the seed determinism of the generated
 * access streams and request offsets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "inputs.hpp"
#include "measure.hpp"
#include "sut.hpp"

namespace atcbench {
namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt)
{
    EXPECT_FALSE(percentile(oneTo(999), 99).has_value());
    ASSERT_TRUE(percentile(oneTo(1000), 99).has_value());
    EXPECT_EQ(*percentile(oneTo(1000), 99), 990.0);
    EXPECT_EQ(*percentile(oneTo(2000), 99), 1980.0);
}

TEST(Percentile, MedianNeedsTwentySamples)
{
    EXPECT_FALSE(percentile(oneTo(19), 50).has_value());
    ASSERT_TRUE(percentile(oneTo(20), 50).has_value());
    EXPECT_EQ(*percentile(oneTo(20), 50), 10.0);
    EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Percentile, IgnoresInputOrder)
{
    std::vector<double> v = oneTo(1000);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(*percentile(v, 99), 990.0);
}

TEST(Median, EvenAndOddCounts)
{
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SelfTime, UnionClipsAndMergesOverlaps)
{
    EXPECT_DOUBLE_EQ(unionLength({{1, 3}, {2, 5}, {8, 12}}, 0, 10), 6.0);
    EXPECT_DOUBLE_EQ(unionLength({{-5, 20}}, 0, 10), 10.0);
    EXPECT_DOUBLE_EQ(unionLength({}, 0, 10), 0.0);
    EXPECT_DOUBLE_EQ(unionLength({{11, 12}}, 0, 10), 0.0);
}

TEST(SelfTime, SpanMinusUnionOfChildren)
{
    // pass [0,10] -> filter [1,5] -> writer [2,3] and [2.5,4]
    //             -> reader [6,9]
    std::vector<SpanRecord> spans = {
        {1, 0, "pass", 0, 10, 1},
        {2, 1, "cache.filter.write", 1, 5, 1},
        {3, 2, "atc.writer.write", 2, 3, 1},
        {4, 2, "atc.writer.write", 2.5, 4, 2},
        {5, 1, "atc.reader.read", 6, 9, 1},
    };
    SelfTimes st = selfTimes(spans);
    EXPECT_DOUBLE_EQ(st.by_name["cache.filter.write"], 4.0 - 2.0);
    EXPECT_DOUBLE_EQ(st.by_name["atc.writer.write"], 1.0 + 1.5);
    EXPECT_DOUBLE_EQ(st.by_name["atc.reader.read"], 3.0);
    EXPECT_DOUBLE_EQ(st.by_layer["cache"], 2.0);
    EXPECT_DOUBLE_EQ(st.by_layer["atc"], 5.5);
    EXPECT_EQ(st.by_layer.count("pass"), 0u);
    EXPECT_DOUBLE_EQ(st.root_s, 10.0);
    EXPECT_DOUBLE_EQ(st.unattributed_s, 10.0 - 4.0 - 3.0);
    // Every second of the root lands in one bucket, except that the
    // two writer spans run concurrently for 0.5 s and both count it.
    double layers = 0;
    for (const auto &[name, s] : st.by_layer)
        layers += s;
    EXPECT_DOUBLE_EQ(layers + st.unattributed_s, st.root_s + 0.5);
}

TEST(SelfTime, OrphansCountAsRoots)
{
    SelfTimes st = selfTimes({{7, 99, "serve.client.seek.hot", 1, 2, 1}});
    EXPECT_DOUBLE_EQ(st.root_s, 1.0);
    EXPECT_DOUBLE_EQ(st.unattributed_s, 1.0);
}

TEST(Tracer, RecordsOnlyWhenEnabled)
{
    Tracer off(false);
    {
        Span s(off, "atc.reader.read", 0);
        EXPECT_GE(s.end(), 0.0);
    }
    EXPECT_TRUE(off.spans().empty());

    Tracer on(true);
    uint32_t parent;
    {
        Span p(on, "pass", 0);
        parent = p.id();
        Span c(on, "atc.reader.read", parent);
    }
    auto spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "atc.reader.read");
    EXPECT_EQ(spans[0].parent, parent);
    EXPECT_NE(on.chromeJson().find("\"ph\":\"X\""), std::string::npos);
}

RequestPlan
plan()
{
    RequestPlan p;
    p.records = 1'000'000;
    p.region = 131072;
    p.count = 1000;
    p.zipf_s = 1.1;
    p.hot_regions = 2;
    return p;
}

bool
sameRequests(const std::vector<Request> &a, const std::vector<Request> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].begin != b[i].begin || a[i].seek != b[i].seek ||
            a[i].hot != b[i].hot || a[i].count != b[i].count)
            return false;
    return true;
}

TEST(Inputs, RequestsFollowTheSeed)
{
    auto a = makeRequests(plan(), 7, 0, 500);
    EXPECT_TRUE(sameRequests(a, makeRequests(plan(), 7, 0, 500)));
    EXPECT_FALSE(sameRequests(a, makeRequests(plan(), 8, 0, 500)));
    EXPECT_FALSE(sameRequests(a, makeRequests(plan(), 7, 1, 500)));
}

TEST(Inputs, RequestsStayInsideOneRegion)
{
    const RequestPlan p = plan();
    for (const Request &r : makeRequests(p, 3, 2, 2000)) {
        ASSERT_EQ(r.count, p.count);
        ASSERT_LE(r.begin + r.count, p.records);
        ASSERT_EQ(r.begin / p.region, (r.begin + r.count - 1) / p.region);
    }
    // The short tail region is never requested.
    RequestPlan tail = p;
    tail.records = 131072 + 500;
    for (const Request &r : makeRequests(tail, 3, 0, 200))
        ASSERT_LE(r.begin + r.count, 131072u);
    // A trace shorter than one region is one region.
    RequestPlan tiny = p;
    tiny.records = 5000;
    for (const Request &r : makeRequests(tiny, 3, 0, 200))
        ASSERT_LE(r.begin + r.count, tiny.records);
}

TEST(Inputs, WarmupCoversEveryWholeRegionOnce)
{
    const RequestPlan p = plan(); // 7 whole regions and a short tail
    std::vector<int> touched(8, 0);
    for (size_t part = 0; part < 3; ++part)
        for (const Request &r : warmupRequests(p, part, 3)) {
            ASSERT_EQ(r.begin % p.region, 0u);
            ASSERT_EQ(r.count, p.count);
            ++touched[r.begin / p.region];
        }
    EXPECT_EQ(touched, std::vector<int>({1, 1, 1, 1, 1, 1, 1, 0}));
}

TEST(Inputs, HotShareFollowsTheZipfMass)
{
    // 1'000'000 records hold 7 whole regions of 131072.
    const RequestPlan p = plan();
    double top = 0, all = 0;
    for (size_t k = 0; k < 7; ++k) {
        double w = std::pow(double(k + 1), -p.zipf_s);
        all += w;
        top += k < p.hot_regions ? w : 0;
    }
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        auto reqs = makeRequests(p, seed, 0, 400);
        double hot = 0;
        for (const Request &r : reqs)
            hot += r.hot;
        EXPECT_NEAR(hot / reqs.size(), top / all, 0.01);
    }
}

TEST(Inputs, HotRegionsMoveWithTheSeed)
{
    RequestPlan p = plan();
    p.hot_regions = 1;
    auto hotRegion = [&](uint64_t seed) {
        for (const Request &r : makeRequests(p, seed, 0, 100))
            if (r.hot)
                return r.begin / p.region;
        return uint64_t(~0ull);
    };
    std::set<uint64_t> seen;
    for (uint64_t seed = 1; seed <= 8; ++seed)
        seen.insert(hotRegion(seed));
    EXPECT_GT(seen.size(), 1u);
}

TEST(Inputs, RawStreamsFollowTheSeed)
{
    auto a = sut::rawAccesses("429.mcf", deriveSeed(5, 0), 20000);
    EXPECT_EQ(a, sut::rawAccesses("429.mcf", deriveSeed(5, 0), 20000));
    EXPECT_NE(a, sut::rawAccesses("429.mcf", deriveSeed(6, 0), 20000));
    EXPECT_NE(deriveSeed(5, 0), deriveSeed(5, 1));
}

} // namespace
} // namespace atcbench

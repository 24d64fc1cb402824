/**
 * @file
 * Unit and property tests for the SA-IS suffix array and the BWT.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "atc/bytesort.hpp"
#include "compress/bwt.hpp"
#include "util/status.hpp"
#include "compress/sais.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

/** O(n^2 log n) reference suffix sort with implicit smallest sentinel. */
std::vector<int32_t>
naiveSuffixArray(const std::vector<uint8_t> &s)
{
    std::vector<int32_t> sa(s.size());
    for (size_t i = 0; i < s.size(); ++i)
        sa[i] = static_cast<int32_t>(i);
    std::sort(sa.begin(), sa.end(), [&](int32_t a, int32_t b) {
        size_t la = s.size() - a, lb = s.size() - b;
        int c = std::memcmp(s.data() + a, s.data() + b, std::min(la, lb));
        if (c != 0)
            return c < 0;
        return la < lb; // shorter suffix first (sentinel is smallest)
    });
    return sa;
}

TEST(SuffixArray, EmptyInput)
{
    EXPECT_TRUE(comp::suffixArray(nullptr, 0).empty());
}

TEST(SuffixArray, SingleCharacter)
{
    uint8_t c = 'x';
    auto sa = comp::suffixArray(&c, 1);
    EXPECT_EQ(sa, std::vector<int32_t>{0});
}

TEST(SuffixArray, RejectsBlocksOf2To31Bytes)
{
    // Suffixes are int32 slots: the length check comes before any
    // allocation or read, so no 2 GiB buffer is needed to reach it.
    uint8_t c = 'x';
    EXPECT_THROW(comp::suffixArray(&c, size_t(1) << 31), util::Error);
    EXPECT_THROW(comp::bwtForward(&c, size_t(1) << 31), util::Error);
}

TEST(SuffixArray, Banana)
{
    std::string s = "banana";
    auto sa = comp::suffixArray(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
    // suffixes sorted: a(5), ana(3), anana(1), banana(0), na(4), nana(2)
    EXPECT_EQ(sa, (std::vector<int32_t>{5, 3, 1, 0, 4, 2}));
}

TEST(SuffixArray, AllSameCharacter)
{
    std::vector<uint8_t> s(50, 'z');
    auto sa = comp::suffixArray(s.data(), s.size());
    // Shorter suffixes sort first: 49, 48, ..., 0.
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(sa[i], static_cast<int32_t>(s.size() - 1 - i));
}

class SuffixArrayProperty
    : public testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(SuffixArrayProperty, MatchesNaiveSort)
{
    auto [max_len, alphabet] = GetParam();
    util::Rng rng(max_len * 131 + alphabet);
    for (int trial = 0; trial < 40; ++trial) {
        size_t n = 1 + rng.below(max_len);
        std::vector<uint8_t> s(n);
        for (auto &c : s)
            c = static_cast<uint8_t>(rng.below(alphabet));
        EXPECT_EQ(comp::suffixArray(s.data(), n), naiveSuffixArray(s));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SuffixArrayProperty,
    testing::Values(std::pair{16, 2}, std::pair{64, 2}, std::pair{64, 4},
                    std::pair{200, 3}, std::pair{200, 256},
                    std::pair{500, 10}));

TEST(Bwt, EmptyInput)
{
    auto r = comp::bwtForward(nullptr, 0);
    EXPECT_TRUE(r.data.empty());
    EXPECT_TRUE(comp::bwtInverse(nullptr, 0, 0).empty());
}

TEST(Bwt, KnownTransform)
{
    // BWT groups identical characters together.
    std::string s = "mississippi";
    auto r = comp::bwtForward(reinterpret_cast<const uint8_t *>(s.data()),
                              s.size());
    auto inv = comp::bwtInverse(r.data.data(), r.data.size(), r.primary);
    EXPECT_EQ(std::string(inv.begin(), inv.end()), s);
}

TEST(Bwt, GroupsRunsOnPeriodicInput)
{
    // "abababab...": the transform should be two runs.
    std::vector<uint8_t> s;
    for (int i = 0; i < 64; ++i)
        s.push_back(i % 2 ? 'b' : 'a');
    auto r = comp::bwtForward(s.data(), s.size());
    int transitions = 0;
    for (size_t i = 1; i < r.data.size(); ++i)
        transitions += r.data[i] != r.data[i - 1];
    EXPECT_LE(transitions, 2);
    auto inv = comp::bwtInverse(r.data.data(), r.data.size(), r.primary);
    EXPECT_EQ(inv, s);
}

class BwtRoundTrip : public testing::TestWithParam<int>
{
};

TEST_P(BwtRoundTrip, RandomInputs)
{
    const int alphabet = GetParam();
    util::Rng rng(alphabet * 7919);
    for (int trial = 0; trial < 60; ++trial) {
        size_t n = rng.below(800);
        std::vector<uint8_t> s(n);
        for (auto &c : s)
            c = static_cast<uint8_t>(rng.below(alphabet));
        auto r = comp::bwtForward(s.data(), n);
        ASSERT_EQ(r.data.size(), n);
        if (n > 0) {
            EXPECT_GE(r.primary, 1u);
            EXPECT_LE(r.primary, n);
        }
        EXPECT_EQ(comp::bwtInverse(r.data.data(), n, r.primary), s);
    }
}

INSTANTIATE_TEST_SUITE_P(Alphabets, BwtRoundTrip,
                         testing::Values(1, 2, 3, 16, 256));

TEST(Bwt, LargeBlockRoundTrip)
{
    util::Rng rng(99);
    std::vector<uint8_t> s(1 << 20);
    // Mixed content: compressible spans and random spans.
    for (size_t i = 0; i < s.size(); ++i)
        s[i] = (i / 4096) % 2 ? static_cast<uint8_t>(rng.below(256))
                              : static_cast<uint8_t>(i & 31);
    auto r = comp::bwtForward(s.data(), s.size());
    EXPECT_EQ(comp::bwtInverse(r.data.data(), r.data.size(), r.primary), s);
}

TEST(Bwt, InverseRejectsBadPrimary)
{
    std::vector<uint8_t> data{'a', 'b', 'c'};
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), 0),
                 util::Error);
    EXPECT_THROW(comp::bwtInverse(data.data(), data.size(), 4),
                 util::Error);
}

/**
 * Reference inverse: the LF-mapping walk over n+1 conceptual rows with
 * a branch on the sentinel row per byte, kept as the oracle for the
 * packed-table kernel.
 */
std::vector<uint8_t>
refBwtInverse(const std::vector<uint8_t> &data, uint32_t primary)
{
    const size_t n = data.size();
    if (n == 0)
        return {};
    if (primary < 1 || primary > n)
        util::raise("BWT primary index out of range");
    std::vector<uint32_t> base(256), running(256, 0);
    std::vector<uint32_t> cnt(256, 0);
    for (uint8_t c : data)
        cnt[c]++;
    uint32_t sum = 1;
    for (int c = 0; c < 256; ++c) {
        base[c] = sum;
        sum += cnt[c];
    }
    std::vector<uint32_t> lf(n + 1);
    for (size_t i = 0; i <= n; ++i) {
        if (i == primary)
            lf[i] = 0;
        else {
            uint8_t c = data[i - (i > primary ? 1 : 0)];
            lf[i] = base[c] + running[c]++;
        }
    }
    std::vector<uint8_t> out(n);
    uint32_t row = lf[primary];
    for (size_t k = n; k-- > 0;) {
        if (row == primary)
            util::raise("corrupt BWT stream");
        out[k] = data[row - (row > primary ? 1 : 0)];
        row = lf[row];
    }
    if (row != primary)
        util::raise("corrupt BWT stream (cycle mismatch)");
    return out;
}

/** Invert with an explicit packing width. */
template <typename Word>
std::vector<uint8_t>
inverseWith(const std::vector<uint8_t> &data, size_t primary)
{
    size_t counts[256] = {};
    for (uint8_t c : data)
        counts[c]++;
    std::vector<uint8_t> out(data.size());
    comp::bwtInverseWith<Word>(data.data(), data.size(), primary, counts,
                               out.data());
    return out;
}

/**
 * Both packings must reproduce @p s from its forward transform, also
 * when the output overwrites the input (as the BWC decoder does).
 */
void
expectBothWidthsInvert(const std::vector<uint8_t> &s)
{
    auto r = comp::bwtForward(s.data(), s.size());
    EXPECT_EQ(inverseWith<uint32_t>(r.data, r.primary), s);
    EXPECT_EQ(inverseWith<uint64_t>(r.data, r.primary), s);
    EXPECT_EQ(refBwtInverse(r.data, r.primary), s);

    size_t counts[256] = {};
    for (uint8_t c : r.data)
        counts[c]++;
    std::vector<uint8_t> in_place = r.data;
    comp::bwtInverse(in_place.data(), in_place.size(), r.primary, counts,
                     in_place.data());
    EXPECT_EQ(in_place, s);
}

TEST(BwtInverse, AllEqualBlock)
{
    expectBothWidthsInvert(std::vector<uint8_t>(5000, 0x7F));
    expectBothWidthsInvert(std::vector<uint8_t>(1, 0));
}

TEST(BwtInverse, PrimaryAtOneAndAtN)
{
    // Ascending input: suffix 0 is the smallest, so primary = 1.
    // Descending (or constant) input: suffix 0 is the largest, so
    // primary = n.
    std::vector<uint8_t> up, down;
    for (int i = 0; i < 200; ++i) {
        up.push_back(static_cast<uint8_t>(i));
        down.push_back(static_cast<uint8_t>(255 - i));
    }
    EXPECT_EQ(comp::bwtForward(up.data(), up.size()).primary, 1u);
    EXPECT_EQ(comp::bwtForward(down.data(), down.size()).primary,
              down.size());
    expectBothWidthsInvert(up);
    expectBothWidthsInvert(down);
}

TEST(BwtInverse, RunHeavyBytesortPlanes)
{
    // Cache-block addresses clustered in a few regions: the planes the
    // codec sees, whose transform is almost all long runs.
    util::Rng rng(41);
    std::vector<uint64_t> addrs(40'000);
    uint64_t region = 0x7f0000000000;
    for (uint64_t &a : addrs) {
        if (rng.below(64) == 0)
            region = 0x7f0000000000 + (rng.below(8) << 24);
        a = (region + (rng.below(1 << 14) << 6));
    }
    auto planes = core::bytesortForward(addrs.data(), addrs.size());
    expectBothWidthsInvert(planes);
}

TEST(BwtInverse, AgreesWithTheReferenceOnEveryPrimary)
{
    // Arbitrary columns, not only forward transforms: for every
    // primary the kernel must return what the reference returns, or
    // throw util::Error exactly when it does.
    util::Rng rng(5);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<uint8_t> data(1 + rng.below(24));
        for (auto &c : data)
            c = static_cast<uint8_t>(rng.below(trial % 2 ? 3 : 256));
        for (uint32_t p = 0; p <= data.size() + 1; ++p) {
            std::vector<uint8_t> want;
            bool ref_throws = false;
            try {
                want = refBwtInverse(data, p);
            } catch (const util::Error &) {
                ref_throws = true;
            }
            for (int width = 0; width < 2; ++width) {
                bool throws = false;
                std::vector<uint8_t> got;
                try {
                    got = width ? inverseWith<uint64_t>(data, p)
                                : inverseWith<uint32_t>(data, p);
                } catch (const util::Error &) {
                    throws = true;
                }
                ASSERT_EQ(throws, ref_throws)
                    << "trial " << trial << " primary " << p;
                if (!throws)
                    EXPECT_EQ(got, want);
            }
        }
    }
}

/** Forward BWT read off a reference suffix array (bwtForward's rows). */
comp::BwtResult
naiveBwt(const std::vector<uint8_t> &s, const std::vector<int32_t> &sa)
{
    comp::BwtResult r;
    if (s.empty())
        return r;
    r.data.push_back(s.back());
    for (size_t i = 0; i < sa.size(); ++i) {
        if (sa[i] == 0)
            r.primary = static_cast<uint32_t>(i + 1);
        else
            r.data.push_back(s[sa[i] - 1]);
    }
    return r;
}

/** Suffix array and BWT of @p s must match the naive sort. */
void
expectMatchesNaive(const std::vector<uint8_t> &s)
{
    auto sa = naiveSuffixArray(s);
    ASSERT_EQ(comp::suffixArray(s.data(), s.size()), sa) << "n " << s.size();
    auto want = naiveBwt(s, sa);
    auto got = comp::bwtForward(s.data(), s.size());
    ASSERT_EQ(got.data, want.data) << "n " << s.size();
    ASSERT_EQ(got.primary, want.primary) << "n " << s.size();
}

TEST(SuffixArrayDifferential, EveryLengthUpTo2000)
{
    // Each length 1..2000 once, cycling through alphabets of 1, 2, 3
    // and 256 symbols; small alphabets force the recursion on repeated
    // LMS substrings, the constant text takes the BWT's shortcut.
    const uint64_t alphabets[] = {1, 2, 3, 256};
    util::Rng rng(2000);
    for (size_t n = 1; n <= 2000; ++n) {
        const uint64_t k = alphabets[n % 4];
        std::vector<uint8_t> s(n);
        for (auto &c : s)
            c = static_cast<uint8_t>(k == 1 ? 'q' : rng.below(k));
        expectMatchesNaive(s);
    }
}

TEST(SuffixArrayDifferential, PeriodicTextsRecurse)
{
    // (bac)^k: every LMS substring but the last is "acba", so the names
    // repeat and the reduced string is sorted recursively, itself
    // periodic again. Also with a tail that breaks the period.
    for (int k = 1; k <= 300; ++k) {
        std::vector<uint8_t> s;
        for (int i = 0; i < k; ++i) {
            s.push_back('b');
            s.push_back('a');
            s.push_back('c');
        }
        expectMatchesNaive(s);
        s.push_back('a');
        expectMatchesNaive(s);
    }
    // Nested periods: (x^j y)^k for several run lengths.
    for (int j = 1; j <= 6; ++j) {
        std::vector<uint8_t> s;
        for (int i = 0; i < 200; ++i) {
            s.insert(s.end(), j, 'x');
            s.push_back('y');
        }
        expectMatchesNaive(s);
    }
}

TEST(SuffixArrayDifferential, FullByteRangeAndExtremes)
{
    // Symbols 0 and 255 at the edges of the bucket arrays.
    util::Rng rng(255);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> s(1 + rng.below(1500));
        for (auto &c : s)
            c = rng.below(2) ? 0 : 255;
        expectMatchesNaive(s);
    }
}

TEST(SaisCore, HandlesRecursiveCase)
{
    // A string designed to produce repeated LMS substrings and force
    // the recursive naming path: long repetition of a 3-phase pattern.
    std::vector<uint8_t> t;
    for (int i = 0; i < 30; ++i) {
        t.push_back(2);
        t.push_back(1);
        t.push_back(3);
    }
    auto sa = comp::suffixArray(t.data(), t.size());
    ASSERT_EQ(sa.size(), t.size());
    // Verify it is a permutation and correctly ordered.
    std::vector<bool> seen(t.size(), false);
    for (int32_t v : sa) {
        ASSERT_GE(v, 0);
        ASSERT_LT(v, static_cast<int32_t>(t.size()));
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
    for (size_t i = 1; i < sa.size(); ++i) {
        std::vector<uint8_t> a(t.begin() + sa[i - 1], t.end());
        std::vector<uint8_t> b(t.begin() + sa[i], t.end());
        EXPECT_TRUE(std::lexicographical_compare(a.begin(), a.end(),
                                                 b.begin(), b.end()));
    }
}

} // namespace
} // namespace atc

/**
 * @file
 * Tests for the bytesort transformation — including the two worked
 * examples from the paper (§4.1 and Figure 1).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "atc/bytesort.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

TEST(Bytesort, EmptyBuffer)
{
    EXPECT_TRUE(core::bytesortForward(nullptr, 0).empty());
    EXPECT_TRUE(core::bytesortInverse(nullptr, 0).empty());
}

TEST(Bytesort, SingleAddress)
{
    uint64_t a = 0x0123456789ABCDEFull;
    auto planes = core::bytesortForward(&a, 1);
    // MSB plane first.
    EXPECT_EQ(planes,
              (std::vector<uint8_t>{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB,
                                    0xCD, 0xEF}));
    EXPECT_EQ(core::bytesortInverse(planes.data(), 1),
              std::vector<uint64_t>{a});
}

TEST(Bytesort, PaperSection41Example)
{
    // §4.1: F200,F201,A100,F202,F203,A101,... — after emitting the
    // high-order plane and sorting, the low-order plane groups the A1
    // region before the F2 region. We model the 16-bit example with the
    // values in the two low bytes of 64-bit addresses.
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 128; ++i) {
        addrs.push_back(0xF200 + 2 * i);
        addrs.push_back(0xF200 + 2 * i + 1);
        if (i < 128)
            addrs.push_back(0xA100 + i);
    }
    auto planes = core::bytesortForward(addrs.data(), addrs.size());
    size_t n = addrs.size();

    // Plane 6 (second-lowest byte) is emitted in the order produced by
    // sorting on planes 0..5, which are all zero — i.e. original order:
    // the periodic F2,F2,A1 pattern.
    const uint8_t *plane6 = planes.data() + 6 * n;
    EXPECT_EQ(plane6[0], 0xF2);
    EXPECT_EQ(plane6[1], 0xF2);
    EXPECT_EQ(plane6[2], 0xA1);
    EXPECT_EQ(plane6[3], 0xF2);

    // Plane 7 (lowest byte) is emitted after sorting by plane 6: all
    // A1-region offsets (ascending 00..7F) then all F2 offsets.
    const uint8_t *plane7 = planes.data() + 7 * n;
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(plane7[i], i) << "A1 region offset " << i;
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(plane7[128 + i], i) << "F2 region offset " << i;

    EXPECT_EQ(core::bytesortInverse(planes.data(), n), addrs);
}

TEST(Bytesort, Figure1Example)
{
    // Figure 1: sixteen 32-bit addresses; we embed them in the low 32
    // bits. The original trace alternates a 00-region stream and an
    // FF-region stream.
    std::vector<uint64_t> addrs = {
        0x00000000, 0xFF000007, 0x0001C000, 0xFF000006, 0x00018000,
        0xFF000005, 0x00014000, 0xFF000004, 0x00010000, 0xFF000003,
        0x0000C000, 0xFF000002, 0x00008000, 0xFF000001, 0x00004000,
        0xFF000000,
    };
    size_t n = addrs.size();
    auto planes = core::bytesortForward(addrs.data(), n);

    // Plane 4 (byte 3 of the 32-bit value) in original order:
    // alternating 00 / FF.
    const uint8_t *p4 = planes.data() + 4 * n;
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(p4[i], i % 2 ? 0xFF : 0x00);

    // Each plane is re-sorted before the next is emitted, so the final
    // plane's order is keyed primarily by the *previous* plane (the
    // most recent stable sort wins). The FF-region addresses all share
    // bytes 1..3, so they stay contiguous and keep their original
    // relative order (stability): their low bytes appear as the run
    // 07,06,...,00 somewhere in the final plane — regions grouped, as
    // in Figure 1's fourth column.
    const uint8_t *p7 = planes.data() + 7 * n;
    std::vector<uint8_t> expected_run{7, 6, 5, 4, 3, 2, 1, 0};
    bool found = false;
    for (size_t start = 0; start + 8 <= n && !found; ++start) {
        found = std::equal(expected_run.begin(), expected_run.end(),
                           p7 + start);
    }
    EXPECT_TRUE(found) << "FF-region run not grouped in final plane";

    EXPECT_EQ(core::bytesortInverse(planes.data(), n), addrs);
}

TEST(Unshuffle, PlanesKeepSequenceOrder)
{
    std::vector<uint64_t> addrs = {0x1122334455667788ull,
                                   0xAABBCCDDEEFF0011ull};
    auto planes = core::unshuffleForward(addrs.data(), 2);
    EXPECT_EQ(planes[0], 0x11);
    EXPECT_EQ(planes[1], 0xAA); // plane 0 = MSBs in order
    EXPECT_EQ(planes[14], 0x88);
    EXPECT_EQ(planes[15], 0x11); // plane 7 = LSBs in order
    EXPECT_EQ(core::unshuffleInverse(planes.data(), 2), addrs);
}

class TransformRoundTrip
    : public testing::TestWithParam<std::pair<core::Transform, size_t>>
{
};

TEST_P(TransformRoundTrip, StreamingRandomAddresses)
{
    auto [transform, buffer] = GetParam();
    util::Rng rng(buffer * 3 + static_cast<int>(transform));
    // Lengths around buffer boundaries, including a partial final
    // buffer and an exact multiple.
    for (size_t len : {size_t(0), size_t(1), buffer - 1, buffer,
                       buffer + 1, 3 * buffer, 3 * buffer + 7}) {
        std::vector<uint64_t> addrs(len);
        for (auto &a : addrs)
            a = rng.next() >> rng.below(40);

        std::vector<uint8_t> out;
        util::VectorSink sink(out);
        core::TransformEncoder enc(transform, buffer, sink);
        for (uint64_t a : addrs)
            enc.code(a);
        enc.finish();
        EXPECT_EQ(enc.count(), len);

        util::MemorySource src(out);
        core::TransformDecoder dec(transform, src, buffer);
        std::vector<uint64_t> back;
        uint64_t v;
        while (dec.decode(&v))
            back.push_back(v);
        EXPECT_EQ(back, addrs) << "len " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TransformRoundTrip,
    testing::Values(std::pair{core::Transform::None, size_t(64)},
                    std::pair{core::Transform::Unshuffle, size_t(64)},
                    std::pair{core::Transform::Bytesort, size_t(64)},
                    std::pair{core::Transform::Bytesort, size_t(1000)},
                    std::pair{core::Transform::Bytesort, size_t(4096)}));

TEST(Bytesort, SortingIsStablePerPlane)
{
    // Addresses sharing all high bytes must keep their relative order
    // in every plane (stability makes the transform reversible).
    std::vector<uint64_t> addrs;
    util::Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        addrs.push_back(0xAB0000 | rng.below(256));
    auto planes = core::bytesortForward(addrs.data(), addrs.size());
    EXPECT_EQ(core::bytesortInverse(planes.data(), addrs.size()), addrs);
}

TEST(Bytesort, GroupsRegionsInLaterPlanes)
{
    // Two interleaved regions: after the transform, the low plane must
    // consist of two sorted-by-region runs, not an interleaving.
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 256; ++i) {
        addrs.push_back(0x11000000ull + i);
        addrs.push_back(0x22000000ull + i);
    }
    size_t n = addrs.size();
    auto planes = core::bytesortForward(addrs.data(), n);
    const uint8_t *low = planes.data() + 7 * n;
    // First 256 low bytes belong to region 0x11 (ascending), next 256
    // to region 0x22 (ascending).
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(low[i], i);
        EXPECT_EQ(low[256 + i], i);
    }
}

TEST(Bytesort, SixMsbZeroBlockAddressesSupported)
{
    // Cache-filtered block addresses have their 6 MSBs null; the paper
    // notes those bits can carry tags. Verify both work.
    std::vector<uint64_t> addrs;
    util::Rng rng(6);
    for (int i = 0; i < 500; ++i) {
        uint64_t block = rng.next() >> 6; // top 6 bits zero
        addrs.push_back(block);
        addrs.push_back(block | (0x2Aull << 58)); // tagged variant
    }
    auto planes = core::bytesortForward(addrs.data(), addrs.size());
    EXPECT_EQ(core::bytesortInverse(planes.data(), addrs.size()), addrs);
}

/**
 * Reference inverse: replay the encoder's stable sorts on an index
 * array and OR each plane into place — the oracle for the carry-through
 * kernel.
 */
std::vector<uint64_t>
refBytesortInverse(const std::vector<uint8_t> &bytes, size_t n)
{
    std::vector<uint64_t> addrs(n, 0);
    std::vector<uint32_t> idx(n), next(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = static_cast<uint32_t>(i);
    for (int j = 0; j < 8; ++j) {
        const uint8_t *plane = bytes.data() + static_cast<size_t>(j) * n;
        for (size_t s = 0; s < n; ++s)
            addrs[idx[s]] |= static_cast<uint64_t>(plane[s]) << (8 * (7 - j));
        if (j == 7)
            break;
        uint32_t start[256] = {};
        for (size_t s = 0; s < n; ++s)
            start[plane[s]]++;
        uint32_t sum = 0;
        for (uint32_t &c : start) {
            uint32_t k = c;
            c = sum;
            sum += k;
        }
        for (size_t s = 0; s < n; ++s)
            next[start[plane[s]]++] = idx[s];
        idx.swap(next);
    }
    return addrs;
}

TEST(BytesortInverse, AllConstantPlanes)
{
    std::vector<uint64_t> addrs(777, 0x00007F12345678C0ull);
    auto planes = core::bytesortForward(addrs.data(), addrs.size());
    EXPECT_EQ(core::bytesortInverse(planes.data(), addrs.size()), addrs);
    std::vector<uint64_t> one{0xFEDCBA9876543210ull};
    planes = core::bytesortForward(one.data(), 1);
    EXPECT_EQ(core::bytesortInverse(planes.data(), 1), one);
}

TEST(BytesortInverse, EveryMixOfConstantAndVaryingPlanes)
{
    // All 256 subsets of varying byte positions (so 0..8 sorted
    // passes, both ping-pong parities), against the reference.
    util::Rng rng(31);
    for (unsigned mask = 0; mask < 256; ++mask) {
        size_t n = 1 + rng.below(300);
        uint64_t fixed = rng.next();
        std::vector<uint64_t> addrs(n);
        for (uint64_t &a : addrs) {
            a = fixed;
            for (int byte = 0; byte < 8; ++byte) {
                if (mask & (1u << byte)) {
                    a &= ~(0xFFull << (8 * byte));
                    a |= rng.below(mask & 1 ? 3 : 256) << (8 * byte);
                }
            }
        }
        auto planes = core::bytesortForward(addrs.data(), n);
        auto got = core::bytesortInverse(planes.data(), n);
        ASSERT_EQ(got, addrs) << "mask " << mask;
        ASSERT_EQ(got, refBytesortInverse(planes, n)) << "mask " << mask;
    }
}

TEST(BytesortInverse, ArbitraryPlanesMatchTheReference)
{
    // Any 8n bytes are a valid bytesort image (the inverse is total):
    // random planes, including run-heavy ones, must agree exactly.
    util::Rng rng(32);
    for (int trial = 0; trial < 30; ++trial) {
        size_t n = 1 + rng.below(2000);
        std::vector<uint8_t> planes(8 * n);
        for (size_t i = 0; i < planes.size(); ++i)
            planes[i] = static_cast<uint8_t>(
                trial % 3 == 0 ? rng.next() : (i / 97) % (1 + trial));
        EXPECT_EQ(core::bytesortInverse(planes.data(), n),
                  refBytesortInverse(planes, n))
            << "trial " << trial;
    }
}

} // namespace
} // namespace atc

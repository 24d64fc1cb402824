/**
 * @file
 * Unit tests for move-to-front recoding, zero-run RLE, and the fused
 * MTF+RLE encoder and RLE+MTF decoder, each checked against a two-pass
 * reference.
 */

#include <gtest/gtest.h>

#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "util/status.hpp"
#include "util/rng.hpp"

namespace atc {
namespace {

/** Reference zero-run decode: symbols back to MTF ranks. */
std::vector<uint8_t>
refRleDecode(const std::vector<uint16_t> &symbols)
{
    std::vector<uint8_t> out;
    uint64_t run = 0;
    uint64_t weight = 1;
    for (uint16_t sym : symbols) {
        if (sym == comp::kRunA || sym == comp::kRunB) {
            run += weight * (sym == comp::kRunA ? 1 : 2);
            weight <<= 1;
            continue;
        }
        out.insert(out.end(), run, 0);
        run = 0;
        weight = 1;
        if (sym == comp::kEob)
            break;
        out.push_back(static_cast<uint8_t>(sym - 1));
    }
    return out;
}

/** Reference MTF decode, one rank at a time. */
std::vector<uint8_t>
refMtfDecode(const std::vector<uint8_t> &ranks)
{
    comp::MtfCoder coder;
    std::vector<uint8_t> out(ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i)
        out[i] = coder.decode(ranks[i]);
    return out;
}

/** Reference MTF encode, one byte at a time. */
std::vector<uint8_t>
refMtfEncode(const std::vector<uint8_t> &data)
{
    comp::MtfCoder coder;
    std::vector<uint8_t> out(data.size());
    for (size_t i = 0; i < data.size(); ++i)
        out[i] = coder.encode(data[i]);
    return out;
}

/** Reference zero-run encode of MTF ranks, EOB appended. */
std::vector<uint16_t>
refRleEncode(const std::vector<uint8_t> &ranks)
{
    std::vector<uint16_t> out;
    uint64_t run = 0;
    auto flush = [&] {
        for (; run > 0; run = (run - 1) >> 1) {
            out.push_back(run & 1 ? comp::kRunA : comp::kRunB);
            run -= out.back(); // RUNB's digit weighs 2
        }
    };
    for (uint8_t r : ranks) {
        if (r == 0) {
            ++run;
            continue;
        }
        flush();
        out.push_back(static_cast<uint16_t>(r + 1));
    }
    flush();
    out.push_back(comp::kEob);
    return out;
}

/** The fused encoder, checking its frequencies against its symbols. */
std::vector<uint16_t>
mtfRleEncode(const std::vector<uint8_t> &data)
{
    std::vector<uint64_t> freq(comp::kRleAlphabet, 0);
    auto symbols = comp::mtfRleEncode(data.data(), data.size(), freq.data());
    std::vector<uint64_t> want(comp::kRleAlphabet, 0);
    for (uint16_t sym : symbols)
        want.at(sym)++;
    EXPECT_EQ(freq, want);
    return symbols;
}

TEST(Mtf, FirstOccurrenceYieldsByteValue)
{
    comp::MtfCoder coder;
    // With the identity initial ordering, the first encode of value v
    // produces rank v.
    EXPECT_EQ(coder.encode(42), 42);
}

TEST(Mtf, RepeatYieldsZero)
{
    comp::MtfCoder coder;
    coder.encode(42);
    EXPECT_EQ(coder.encode(42), 0);
    EXPECT_EQ(coder.encode(42), 0);
}

TEST(Mtf, RecentlyUsedGetSmallRanks)
{
    comp::MtfCoder coder;
    coder.encode(10);
    coder.encode(20);
    EXPECT_EQ(coder.encode(10), 1); // one step behind 20
}

TEST(Mtf, EncodeDecodeAreInverse)
{
    util::Rng rng(3);
    std::vector<uint8_t> data(5000);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.below(7) * 37);
    EXPECT_EQ(refMtfDecode(refMtfEncode(data)), data);
}

TEST(Mtf, LocalReuseProducesZeros)
{
    std::vector<uint8_t> data(1000, 7);
    auto enc = refMtfEncode(data);
    EXPECT_EQ(enc[0], 7);
    for (size_t i = 1; i < enc.size(); ++i)
        EXPECT_EQ(enc[i], 0);
}

TEST(Mtf, ResetRestoresIdentity)
{
    comp::MtfCoder coder;
    coder.encode(200);
    coder.reset();
    EXPECT_EQ(coder.encode(200), 200);
}

TEST(Rle, EmptyInputIsJustEob)
{
    auto symbols = mtfRleEncode({});
    ASSERT_EQ(symbols.size(), 1u);
    EXPECT_EQ(symbols[0], comp::kEob);
    EXPECT_TRUE(comp::rleMtfDecode(symbols, 0).empty());
}

TEST(Rle, NonzeroRanksShiftUp)
{
    // Ranks 1 and 255 from the identity order; 100 then sits behind
    // 255, 1, 0 and 2..99, at rank 101.
    std::vector<uint8_t> data{1, 255, 100};
    auto symbols = mtfRleEncode(data);
    ASSERT_EQ(symbols.size(), 4u);
    EXPECT_EQ(symbols[0], 2);   // 1 + 1
    EXPECT_EQ(symbols[1], 256); // 255 + 1
    EXPECT_EQ(symbols[2], 102); // 101 + 1
    EXPECT_EQ(symbols[3], comp::kEob);
}

struct RunCase
{
    uint64_t run;
    std::vector<uint16_t> digits;
};

class RleRunEncoding : public testing::TestWithParam<RunCase>
{
};

TEST_P(RleRunEncoding, BijectiveBase2)
{
    std::vector<uint8_t> data(GetParam().run, 0);
    auto symbols = mtfRleEncode(data);
    std::vector<uint16_t> expected = GetParam().digits;
    expected.push_back(comp::kEob);
    EXPECT_EQ(symbols, expected);
    // Rank 0 of the initial MTF order is byte 0: the run decodes to
    // the same zeros.
    EXPECT_EQ(comp::rleMtfDecode(symbols, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, RleRunEncoding,
    testing::Values(RunCase{1, {comp::kRunA}}, RunCase{2, {comp::kRunB}},
                    RunCase{3, {comp::kRunA, comp::kRunA}},
                    RunCase{4, {comp::kRunB, comp::kRunA}},
                    RunCase{5, {comp::kRunA, comp::kRunB}},
                    RunCase{6, {comp::kRunB, comp::kRunB}},
                    RunCase{7, {comp::kRunA, comp::kRunA, comp::kRunA}}));

TEST(Rle, LongRunIsLogarithmic)
{
    std::vector<uint8_t> data(1'000'000, 0);
    auto symbols = mtfRleEncode(data);
    EXPECT_LE(symbols.size(), 22u); // ~log2(1e6) digits + EOB
    EXPECT_EQ(comp::rleMtfDecode(symbols, data.size()), data);
}

TEST(Rle, MixedContentRoundTrip)
{
    util::Rng rng(17);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> data(rng.below(3000));
        for (auto &b : data)
            b = rng.below(3) ? 0 : static_cast<uint8_t>(rng.below(256));
        EXPECT_EQ(comp::rleMtfDecode(mtfRleEncode(data), data.size()),
                  data);
    }
}

TEST(Rle, DecodeRejectsMissingEob)
{
    std::vector<uint16_t> symbols{5, 6};
    EXPECT_THROW(comp::rleMtfDecode(symbols, 16), util::Error);
}

TEST(Rle, DecodeRejectsTrailingSymbols)
{
    std::vector<uint16_t> symbols{5, comp::kEob, 6};
    EXPECT_THROW(comp::rleMtfDecode(symbols, 16), util::Error);
}

TEST(Rle, DecodeRejectsSymbolsOutsideTheAlphabet)
{
    std::vector<uint16_t> symbols{5, comp::kEob + 1, comp::kEob};
    EXPECT_THROW(comp::rleMtfDecode(symbols, 16), util::Error);
}

TEST(Rle, RunsAreBoundedByTheBlock)
{
    // 60 RUNB digits declare a run of ~2^61 zeros: rejected before
    // anything is written, whatever the room left.
    std::vector<uint16_t> huge(60, comp::kRunB);
    huge.push_back(comp::kEob);
    EXPECT_THROW(comp::rleMtfDecode(huge, 1 << 20), util::Error);

    // A run one past the room left, after a literal.
    std::vector<uint16_t> over{2, comp::kRunA, comp::kRunA, comp::kEob};
    EXPECT_THROW(comp::rleMtfDecode(over, 3), util::Error);
    EXPECT_EQ(comp::rleMtfDecode(over, 4).size(), 4u);

    // A literal with no room left.
    std::vector<uint16_t> lit{comp::kRunB, 2, comp::kEob};
    EXPECT_THROW(comp::rleMtfDecode(lit, 2), util::Error);
}

TEST(MtfRle, FusedDecodeMatchesTheTwoPassDecodeOnRandomSymbols)
{
    // Arbitrary symbol streams, not only encoder output: runs of any
    // length and any rank, against the reference RLE then MTF decode.
    util::Rng rng(29);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<uint16_t> symbols;
        size_t len = rng.below(400);
        int digits = 0; // run digits in a row, kept below 2^12 zeros
        for (size_t i = 0; i < len; ++i) {
            uint64_t kind = rng.below(4);
            digits = kind < 2 && digits < 11 ? digits + 1 : 0;
            if (digits > 0)
                symbols.push_back(static_cast<uint16_t>(kind));
            else
                symbols.push_back(
                    static_cast<uint16_t>(2 + rng.below(trial % 2 ? 255 : 4)));
        }
        symbols.push_back(comp::kEob);
        std::vector<uint8_t> expect = refMtfDecode(refRleDecode(symbols));

        std::vector<uint8_t> out(expect.size());
        size_t counts[256] = {};
        size_t i = 0;
        size_t n = comp::rleMtfDecode([&] { return symbols[i++]; },
                                      out.data(), out.size(), counts);
        ASSERT_EQ(n, expect.size());
        EXPECT_EQ(out, expect);
        EXPECT_EQ(i, symbols.size());
        size_t ref_counts[256] = {};
        for (uint8_t b : expect)
            ref_counts[b]++;
        for (int c = 0; c < 256; ++c)
            EXPECT_EQ(counts[c], ref_counts[c]) << "byte " << c;
    }
}

TEST(MtfRle, FusedEncodeMatchesTheTwoPassEncode)
{
    // Run-heavy and random inputs, runs of every length around the
    // word-at-a-time scan's 8-byte steps, bytes 0 and 255 included.
    util::Rng rng(31);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<uint8_t> data;
        size_t len = rng.below(2000);
        while (data.size() < len) {
            uint8_t v = static_cast<uint8_t>(
                trial % 3 == 0 ? rng.below(256) : rng.below(4) * 85);
            size_t run = trial % 2 ? 1 + rng.below(20) : 1;
            data.insert(data.end(), run, v);
        }
        EXPECT_EQ(mtfRleEncode(data), refRleEncode(refMtfEncode(data)));
        EXPECT_EQ(comp::rleMtfDecode(mtfRleEncode(data), data.size()),
                  data);
    }
}

TEST(MtfRle, PipelineShrinksRepetitiveData)
{
    // BWT-like data: long runs of the same byte.
    std::vector<uint8_t> data;
    for (int run = 0; run < 100; ++run) {
        uint8_t value = static_cast<uint8_t>(run * 13);
        for (int i = 0; i < 500; ++i)
            data.push_back(value);
    }
    auto symbols = mtfRleEncode(data);
    // 100 runs -> ~100 literals + ~100*9 run digits, far below 50000.
    EXPECT_LT(symbols.size(), 2000u);

    EXPECT_EQ(comp::rleMtfDecode(symbols, data.size()), data);
}

} // namespace
} // namespace atc

/**
 * @file
 * Unit tests for canonical, length-limited Huffman coding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "compress/huffman.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace atc {
namespace {

/** Verify Kraft inequality and length-limit for a set of lengths. */
void
checkValidCode(const std::vector<uint8_t> &lengths, int limit)
{
    double kraft = 0.0;
    for (uint8_t l : lengths) {
        EXPECT_LE(l, limit);
        if (l > 0)
            kraft += std::pow(2.0, -static_cast<double>(l));
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(HuffmanLengths, EmptyFrequencies)
{
    std::vector<uint64_t> freq(10, 0);
    auto lengths = comp::huffmanLengths(freq);
    for (uint8_t l : lengths)
        EXPECT_EQ(l, 0);
}

TEST(HuffmanLengths, SingleSymbolGetsLengthOne)
{
    std::vector<uint64_t> freq(10, 0);
    freq[3] = 1000;
    auto lengths = comp::huffmanLengths(freq);
    EXPECT_EQ(lengths[3], 1);
}

TEST(HuffmanLengths, TwoSymbols)
{
    std::vector<uint64_t> freq{7, 0, 3};
    auto lengths = comp::huffmanLengths(freq);
    EXPECT_EQ(lengths[0], 1);
    EXPECT_EQ(lengths[1], 0);
    EXPECT_EQ(lengths[2], 1);
}

TEST(HuffmanLengths, MoreFrequentNeverLonger)
{
    util::Rng rng(5);
    std::vector<uint64_t> freq(64);
    for (auto &f : freq)
        f = rng.below(10000);
    auto lengths = comp::huffmanLengths(freq);
    for (size_t i = 0; i < freq.size(); ++i) {
        for (size_t j = 0; j < freq.size(); ++j) {
            if (freq[i] > freq[j] && freq[j] > 0)
                EXPECT_LE(lengths[i], lengths[j])
                    << "sym " << i << " freq " << freq[i] << " vs sym "
                    << j << " freq " << freq[j];
        }
    }
    checkValidCode(lengths, comp::kMaxCodeLen);
}

TEST(HuffmanLengths, RespectsLengthLimitOnSkewedInput)
{
    // Fibonacci-like frequencies force deep trees without a limit.
    std::vector<uint64_t> freq(40);
    uint64_t a = 1, b = 1;
    for (auto &f : freq) {
        f = a;
        uint64_t c = a + b;
        a = b;
        b = c;
    }
    for (int limit : {8, 12, 24}) {
        auto lengths = comp::huffmanLengths(freq, limit);
        checkValidCode(lengths, limit);
        for (size_t i = 0; i < freq.size(); ++i)
            EXPECT_GT(lengths[i], 0) << i;
    }
}

TEST(HuffmanLengths, NearOptimalOnUniformInput)
{
    std::vector<uint64_t> freq(256, 100);
    auto lengths = comp::huffmanLengths(freq);
    for (uint8_t l : lengths)
        EXPECT_EQ(l, 8); // 256 equal symbols -> exactly 8 bits
}

class HuffmanRoundTrip : public testing::TestWithParam<int>
{
};

TEST_P(HuffmanRoundTrip, EncodeDecode)
{
    const int alphabet = GetParam();
    util::Rng rng(alphabet);

    // Geometric-ish distribution over the alphabet.
    std::vector<uint64_t> freq(alphabet, 0);
    std::vector<int> symbols;
    for (int i = 0; i < 20000; ++i) {
        int sym = 0;
        while (sym + 1 < alphabet && rng.below(3) == 0)
            ++sym;
        freq[sym]++;
        symbols.push_back(sym);
    }

    comp::HuffmanEncoder enc(freq);
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    enc.writeTable(bw);
    for (int sym : symbols)
        enc.writeSymbol(bw, sym);
    bw.alignAndFlush();

    util::MemorySource src(out);
    util::BitReader br(src);
    comp::HuffmanDecoder dec = comp::HuffmanDecoder::readTable(br, alphabet);
    for (int sym : symbols)
        EXPECT_EQ(dec.decode(br), sym);
}

INSTANTIATE_TEST_SUITE_P(Alphabets, HuffmanRoundTrip,
                         testing::Values(2, 3, 16, 100, 258, 300));

TEST(HuffmanDecoder, RejectsOverfullTable)
{
    // Three codes of length 1 violate Kraft.
    std::vector<uint8_t> lengths{1, 1, 1};
    EXPECT_THROW(comp::HuffmanDecoder dec(lengths), util::Error);
}

TEST(HuffmanDecoder, RejectsInvalidStreamCode)
{
    // Incomplete code: one symbol of length 2; the code 11... is invalid.
    std::vector<uint8_t> lengths{2};
    comp::HuffmanDecoder dec(lengths);
    std::vector<uint8_t> data{0xFF, 0xFF, 0xFF, 0xFF};
    util::MemorySource src(data);
    util::BitReader br(src);
    EXPECT_THROW(dec.decode(br), util::Error);
}

/**
 * Reference decoder: match the stream bit by bit against every
 * symbol's canonical code (from the encoder), the slowest correct
 * decode — the oracle for the table-driven one.
 */
int
refDecode(const std::vector<uint8_t> &lengths,
          const std::vector<std::pair<uint32_t, int>> &codes,
          util::BitReader &br)
{
    uint32_t code = 0;
    for (int l = 1; l <= comp::kMaxCodeLen; ++l) {
        code = code << 1 | br.readBit();
        for (size_t sym = 0; sym < lengths.size(); ++sym) {
            if (lengths[sym] == l && codes[sym].first == code)
                return static_cast<int>(sym);
        }
    }
    return -1;
}

/** Canonical (code, length) per symbol, recovered via the encoder. */
std::vector<std::pair<uint32_t, int>>
canonicalCodes(const std::vector<uint8_t> &lengths)
{
    comp::HuffmanEncoder enc(lengths);
    std::vector<std::pair<uint32_t, int>> codes(lengths.size());
    for (size_t sym = 0; sym < lengths.size(); ++sym) {
        if (lengths[sym] == 0)
            continue;
        std::vector<uint8_t> bytes;
        util::VectorSink sink(bytes);
        util::BitWriter bw(sink);
        enc.writeSymbol(bw, static_cast<int>(sym));
        bw.alignAndFlush();
        uint32_t code = 0;
        for (int i = 0; i < lengths[sym]; ++i)
            code = code << 1 | ((bytes[i / 8] >> (7 - i % 8)) & 1);
        codes[sym] = {code, lengths[sym]};
    }
    return codes;
}

TEST(HuffmanDecoder, TableDecodeMatchesBitwiseDecode)
{
    util::Rng rng(77);
    for (int trial = 0; trial < 40; ++trial) {
        // Geometric frequencies spread code lengths from 1 to the
        // 24-bit limit; trial 0 forces a full 1..24 ladder.
        size_t alphabet = 2 + rng.below(299);
        std::vector<uint64_t> freq(alphabet, 0);
        for (size_t i = 0; i < alphabet; ++i) {
            if (rng.below(4) != 0)
                freq[i] = uint64_t(1) << rng.below(40);
        }
        freq[0] += 1;
        freq[alphabet - 1] += 1;
        std::vector<uint8_t> lengths = comp::huffmanLengths(freq);
        if (trial == 0) {
            lengths.assign(26, 0);
            for (int l = 1; l <= comp::kMaxCodeLen; ++l)
                lengths[l - 1] = static_cast<uint8_t>(l);
            lengths[24] = comp::kMaxCodeLen;
        }
        int longest = 0;
        for (uint8_t l : lengths)
            longest = std::max<int>(longest, l);
        if (trial == 0)
            ASSERT_EQ(longest, comp::kMaxCodeLen);

        std::vector<int> used;
        for (size_t i = 0; i < lengths.size(); ++i) {
            if (lengths[i] > 0)
                used.push_back(static_cast<int>(i));
        }
        std::vector<int> symbols(3000);
        for (int &sym : symbols)
            sym = used[rng.below(used.size())];

        comp::HuffmanEncoder enc(lengths);
        std::vector<uint8_t> out;
        util::VectorSink sink(out);
        util::BitWriter bw(sink);
        for (int sym : symbols)
            enc.writeSymbol(bw, sym);
        bw.alignAndFlush();

        auto codes = canonicalCodes(lengths);
        comp::HuffmanDecoder dec(lengths);
        util::MemorySource fast_src(out), ref_src(out);
        util::BitReader fast(fast_src), ref(ref_src);
        for (size_t i = 0; i < symbols.size(); ++i) {
            int want = refDecode(lengths, codes, ref);
            ASSERT_EQ(want, symbols[i]);
            ASSERT_EQ(dec.decode(fast), want) << "trial " << trial;
        }
    }
}

TEST(HuffmanDecoder, IncompleteCodeRaisesOnUnusedCodes)
{
    // Codes 0 and 10 (plus a 24-bit one): every other prefix is unused
    // and must raise, whether it resolves in the table or past it.
    std::vector<uint8_t> lengths{1, 2, 0, comp::kMaxCodeLen};
    comp::HuffmanDecoder dec(lengths);
    for (uint8_t first : {0xC1, 0xFF, 0xE0}) {
        std::vector<uint8_t> data{first, 0x00, 0x00, 0x00, 0x00};
        util::MemorySource src(data);
        util::BitReader br(src);
        EXPECT_THROW(dec.decode(br), util::Error) << int(first);
    }
    // The used codes still decode: 0, 10, then 11 followed by 22 zeros.
    std::vector<uint8_t> ok{0x58, 0x00, 0x00, 0x00};
    util::MemorySource src(ok);
    util::BitReader br(src);
    EXPECT_EQ(dec.decode(br), 0);
    EXPECT_EQ(dec.decode(br), 1);
    EXPECT_EQ(dec.decode(br), 3);
}

TEST(HuffmanDecoder, StdioSourceIsNotReadAhead)
{
    // Over a source that cannot lend its bytes, decoding must consume
    // exactly the coded block: the byte after it stays in the stream.
    std::vector<uint64_t> freq(20, 1);
    freq[3] = 1000;
    comp::HuffmanEncoder enc(freq);
    std::vector<uint8_t> bytes;
    util::VectorSink sink(bytes);
    util::BitWriter bw(sink);
    enc.writeTable(bw);
    for (int i = 0; i < 100; ++i)
        enc.writeSymbol(bw, i % 7 ? 3 : i % 20);
    bw.alignAndFlush();
    bytes.push_back(0xA5);

    std::string path = testing::TempDir() + "huffman_stdio.bin";
    {
        util::FileSink file(path);
        file.write(bytes.data(), bytes.size());
        file.close();
    }
    util::FileSource src(path);
    util::BitReader br(src);
    comp::HuffmanDecoder dec = comp::HuffmanDecoder::readTable(br, 20);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dec.decode(br), i % 7 ? 3 : i % 20);
    br.align();
    uint8_t next = 0;
    src.readExact(&next, 1);
    EXPECT_EQ(next, 0xA5);
    std::remove(path.c_str());

    // Same block from memory: align() leaves exactly the trailer.
    util::MemorySource mem(bytes);
    util::BitReader mbr(mem);
    comp::HuffmanDecoder mdec = comp::HuffmanDecoder::readTable(mbr, 20);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(mdec.decode(mbr), i % 7 ? 3 : i % 20);
    mbr.align();
    EXPECT_EQ(mem.remaining(), 1u);
}

TEST(HuffmanEncoder, CanonicalCodesAreOrdered)
{
    std::vector<uint64_t> freq{100, 50, 25, 12, 6, 3};
    comp::HuffmanEncoder enc(freq);
    const auto &lengths = enc.lengths();
    // Canonical property: codes are assigned by (length, symbol); just
    // verify the most frequent symbol got the shortest code length.
    for (size_t i = 1; i < lengths.size(); ++i)
        EXPECT_LE(lengths[0], lengths[i]);
}

TEST(HuffmanCompression, ApproachesEntropyOnBiasedData)
{
    // 90/10 binary source: entropy ~0.469 bits/symbol.
    util::Rng rng(11);
    std::vector<uint64_t> freq(2, 0);
    std::vector<int> symbols(100000);
    for (auto &s : symbols) {
        s = rng.below(10) == 0;
        freq[s]++;
    }
    comp::HuffmanEncoder enc(freq);
    // Plain Huffman on a binary alphabet cannot beat 1 bit/symbol, but
    // the table must still assign 1-bit codes to both.
    EXPECT_EQ(enc.lengths()[0], 1);
    EXPECT_EQ(enc.lengths()[1], 1);
}

} // namespace
} // namespace atc

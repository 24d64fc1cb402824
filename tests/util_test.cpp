/**
 * @file
 * Unit tests for the util module: byte streams, varints, bit I/O,
 * CRC-32 and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/bitio.hpp"
#include "util/bytestream.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace atc {
namespace {

TEST(Status, OkByDefault)
{
    util::Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s.message().empty());
    EXPECT_NO_THROW(s.orThrow());
}

TEST(Status, ErrorCarriesMessage)
{
    util::Status s = util::Status::error("boom");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.message(), "boom");
    EXPECT_THROW(s.orThrow(), util::Error);
}

TEST(VectorSink, AppendsBytes)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    sink.writeByte(1);
    uint8_t data[3] = {2, 3, 4};
    sink.write(data, 3);
    EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3, 4}));
}

TEST(MemorySource, ReadsAndTracksRemaining)
{
    std::vector<uint8_t> data{10, 20, 30, 40, 50};
    util::MemorySource src(data);
    uint8_t buf[3];
    EXPECT_EQ(src.read(buf, 3), 3u);
    EXPECT_EQ(buf[0], 10);
    EXPECT_EQ(src.remaining(), 2u);
    EXPECT_EQ(src.read(buf, 3), 2u);
    EXPECT_EQ(src.read(buf, 3), 0u);
}

TEST(MemorySource, ReadExactThrowsOnTruncation)
{
    std::vector<uint8_t> data{1, 2};
    util::MemorySource src(data);
    uint8_t buf[4];
    EXPECT_THROW(src.readExact(buf, 4), util::Error);
}

TEST(CountingSink, CountsWithoutStoring)
{
    util::CountingSink sink;
    uint8_t data[100] = {};
    sink.write(data, 100);
    sink.write(data, 23);
    EXPECT_EQ(sink.count(), 123u);
}

TEST(FileIo, RoundTrip)
{
    std::string path = testing::TempDir() + "/atc_util_file_test.bin";
    {
        util::FileSink sink(path);
        uint8_t data[5] = {9, 8, 7, 6, 5};
        sink.write(data, 5);
        EXPECT_EQ(sink.bytesWritten(), 5u);
        sink.close();
    }
    {
        util::FileSource src(path);
        uint8_t buf[8];
        EXPECT_EQ(src.read(buf, 8), 5u);
        EXPECT_EQ(buf[0], 9);
        EXPECT_EQ(buf[4], 5);
    }
    std::remove(path.c_str());
}

TEST(FileIo, OpenMissingFileThrows)
{
    EXPECT_THROW(util::FileSource("/nonexistent/path/x.bin"), util::Error);
}

TEST(FileIo, SkipBeyondTwoGiB)
{
    // fseek(long) truncated skips >= 2 GiB where long is 32 bits; the
    // skip must go through the platform's 64-bit positioning. A sparse
    // file keeps the disk footprint at a few pages.
    std::string path = testing::TempDir() + "/atc_util_sparse_test.bin";
    constexpr uint64_t kFar = (uint64_t(2) << 30) + (uint64_t(1) << 29);
    {
        std::FILE *fp = std::fopen(path.c_str(), "wb");
        ASSERT_NE(fp, nullptr);
        ASSERT_EQ(std::fputc('A', fp), 'A');
#if defined(_WIN32)
        ASSERT_EQ(_fseeki64(fp, static_cast<int64_t>(kFar), SEEK_SET), 0);
#else
        ASSERT_EQ(fseeko(fp, static_cast<off_t>(kFar), SEEK_SET), 0);
#endif
        ASSERT_EQ(std::fputc('Z', fp), 'Z');
        std::fclose(fp);
    }
    {
        util::FileSource src(path);
        uint8_t b = 0;
        ASSERT_EQ(src.read(&b, 1), 1u);
        EXPECT_EQ(b, 'A');
        src.skip(kFar - 1); // lands exactly on the far byte
        ASSERT_EQ(src.read(&b, 1), 1u);
        EXPECT_EQ(b, 'Z');
        // And past-the-end skips still report truncation.
        EXPECT_THROW(src.skip(1), util::Error);
    }
    std::remove(path.c_str());
}

TEST(LittleEndian, FixedWidthRoundTrip)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::writeLE<uint32_t>(sink, 0xDEADBEEFu);
    util::writeLE<uint64_t>(sink, 0x0123456789ABCDEFull);
    EXPECT_EQ(out.size(), 12u);
    EXPECT_EQ(out[0], 0xEF); // little endian
    util::MemorySource src(out);
    EXPECT_EQ(util::readLE<uint32_t>(src), 0xDEADBEEFu);
    EXPECT_EQ(util::readLE<uint64_t>(src), 0x0123456789ABCDEFull);
}

class VarintTest : public testing::TestWithParam<uint64_t>
{
};

TEST_P(VarintTest, RoundTrip)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::writeVarint(sink, GetParam());
    util::MemorySource src(out);
    EXPECT_EQ(util::readVarint(src), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintTest,
    testing::Values(0ull, 1ull, 127ull, 128ull, 255ull, 16383ull, 16384ull,
                    (1ull << 32) - 1, 1ull << 32, (1ull << 56) + 12345,
                    ~0ull));

TEST(Varint, EncodingIsMinimal)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::writeVarint(sink, 127);
    EXPECT_EQ(out.size(), 1u);
    out.clear();
    util::writeVarint(sink, 128);
    EXPECT_EQ(out.size(), 2u);
}

TEST(BitIo, SingleBits)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    for (int i = 0; i < 10; ++i)
        bw.writeBit(i & 1);
    bw.alignAndFlush();
    ASSERT_EQ(out.size(), 2u);

    util::MemorySource src(out);
    util::BitReader br(src);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(br.readBit(), static_cast<uint32_t>(i & 1));
}

TEST(BitIo, MultiBitFieldsMsbFirst)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    bw.writeBits(0b101, 3);
    bw.writeBits(0b11110000, 8);
    bw.writeBits(0x1FFFF, 17);
    bw.alignAndFlush();

    util::MemorySource src(out);
    util::BitReader br(src);
    EXPECT_EQ(br.readBits(3), 0b101u);
    EXPECT_EQ(br.readBits(8), 0b11110000u);
    EXPECT_EQ(br.readBits(17), 0x1FFFFu);
}

TEST(BitIo, AlignSkipsToByteBoundary)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    bw.writeBits(1, 3);
    bw.alignAndFlush();
    bw.writeBits(0xAB, 8);
    bw.alignAndFlush();

    util::MemorySource src(out);
    util::BitReader br(src);
    br.readBits(3);
    br.align();
    EXPECT_EQ(br.readBits(8), 0xABu);
}

TEST(BitIo, TruncationThrowsFromMemoryAndFromStdio)
{
    std::vector<uint8_t> bytes{0xAB, 0xCD};
    util::MemorySource mem(bytes);
    util::BitReader mbr(mem);
    EXPECT_EQ(mbr.readBits(12), 0xABCu);
    EXPECT_THROW(mbr.readBits(5), util::Error);
    // The reader leaves a memory source exhausted, like a byte read.
    EXPECT_EQ(mem.remaining(), 0u);

    std::string path = testing::TempDir() + "bitio_trunc.bin";
    {
        util::FileSink file(path);
        file.write(bytes.data(), bytes.size());
        file.close();
    }
    util::FileSource file(path);
    util::BitReader fbr(file);
    EXPECT_EQ(fbr.readBits(12), 0xABCu);
    EXPECT_THROW(fbr.readBits(5), util::Error);
    std::remove(path.c_str());
}

TEST(BitIo, LongStreamsRefillAcrossWords)
{
    // Mixed field widths over a stream far longer than the 64-bit
    // buffer, from memory (word refills) and stdio (byte refills).
    util::Rng rng(4);
    std::vector<std::pair<uint32_t, int>> fields(2000);
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    for (auto &[value, width] : fields) {
        width = 1 + static_cast<int>(rng.below(32));
        value = static_cast<uint32_t>(rng.next()) &
                static_cast<uint32_t>((uint64_t(1) << width) - 1);
        bw.writeBits(value, width);
    }
    bw.alignAndFlush();

    util::MemorySource mem(out);
    util::BitReader mbr(mem);
    for (const auto &[value, width] : fields)
        ASSERT_EQ(mbr.readBits(width), value);
    mbr.align();
    EXPECT_EQ(mem.remaining(), 0u);

    std::string path = testing::TempDir() + "bitio_long.bin";
    {
        util::FileSink file(path);
        file.write(out.data(), out.size());
        file.close();
    }
    util::FileSource file(path);
    util::BitReader fbr(file);
    for (const auto &[value, width] : fields)
        ASSERT_EQ(fbr.readBits(width), value);
    std::remove(path.c_str());
}

TEST(BitIo, BitCountTracksPadding)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::BitWriter bw(sink);
    bw.writeBits(0, 3);
    bw.alignAndFlush();
    EXPECT_EQ(bw.bitCount(), 8u);
}

TEST(Crc32, MatchesKnownVector)
{
    // IEEE CRC-32 of "123456789" is 0xCBF43926.
    const char *s = "123456789";
    EXPECT_EQ(util::crc32(reinterpret_cast<const uint8_t *>(s), 9),
              0xCBF43926u);
}

TEST(Crc32, EmptyInput)
{
    EXPECT_EQ(util::crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    util::Crc32 crc;
    crc.update(data.data(), 400);
    crc.update(data.data() + 400, 600);
    EXPECT_EQ(crc.value(), util::crc32(data.data(), data.size()));
}

/** Bitwise reflected CRC-32, the oracle for the sliced kernel. */
uint32_t
refCrc32(const uint8_t *data, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return ~c;
}

TEST(Crc32, SplitUpdatesMatchOneShotAtEveryOffset)
{
    util::Rng rng(8);
    std::vector<uint8_t> store(300);
    for (auto &b : store)
        b = static_cast<uint8_t>(rng.next());
    // Every start alignment 0..7 and every split point 0..16, with
    // lengths around the 8-byte slicing step.
    for (size_t align = 0; align < 8; ++align) {
        for (size_t len : {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 255}) {
            const uint8_t *p = store.data() + align;
            uint32_t want = refCrc32(p, len);
            ASSERT_EQ(util::crc32(p, len), want)
                << "align " << align << " len " << len;
            for (size_t split = 0; split <= 16 && split <= len; ++split) {
                util::Crc32 crc;
                crc.update(p, split);
                crc.update(p + split, len - split);
                ASSERT_EQ(crc.value(), want)
                    << "align " << align << " len " << len << " split "
                    << split;
            }
        }
    }
}

TEST(Crc32, DetectsSingleBitFlip)
{
    std::vector<uint8_t> data(64, 0x55);
    uint32_t base = util::crc32(data.data(), data.size());
    data[17] ^= 0x04;
    EXPECT_NE(base, util::crc32(data.data(), data.size()));
}

TEST(Rng, DeterministicForSeed)
{
    util::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    util::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    util::Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, UniformCoversRange)
{
    util::Rng rng(9);
    double mn = 1.0, mx = 0.0, sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        mn = std::min(mn, u);
        mx = std::max(mx, u);
        sum += u;
    }
    EXPECT_GE(mn, 0.0);
    EXPECT_LT(mx, 1.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

} // namespace
} // namespace atc

#include "compress/rle.hpp"

#include <bit>
#include <cstring>

#include "util/status.hpp"

namespace atc::comp {

namespace {

/** Write the bijective base-2 numeral for a run of @p run zeros. */
uint16_t *
emitRun(uint64_t run, uint16_t *out, uint64_t *freq)
{
    // run = sum of digit_i * 2^i with digits in {1 (RUNA), 2 (RUNB)}.
    while (run > 0) {
        uint16_t digit = (run & 1) ? kRunA : kRunB;
        *out++ = digit;
        ++freq[digit];
        run = (run - 1 - digit) >> 1;
    }
    return out;
}

/** Length of the run of @p v starting at data[0], at most @p n. */
size_t
runLength(const uint8_t *data, size_t n, uint8_t v)
{
    // Runs dominate BWT output; compare a word at a time against the
    // broadcast byte before falling back to the byte tail.
    const uint64_t pattern = v * 0x0101010101010101ull;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, 8);
        if (uint64_t diff = w ^ pattern) {
            if constexpr (std::endian::native == std::endian::little)
                return i + static_cast<size_t>(std::countr_zero(diff) >> 3);
            else
                return i + static_cast<size_t>(std::countl_zero(diff) >> 3);
        }
    }
    while (i < n && data[i] == v)
        ++i;
    return i;
}

} // namespace

std::vector<uint16_t>
mtfRleEncode(const uint8_t *data, size_t n, uint64_t *freq)
{
    std::vector<uint16_t> symbols(n + 1);
    uint16_t *out = symbols.data();
    MtfCoder mtf;
    size_t i = 0;
    while (i < n) {
        uint8_t v = data[i];
        if (v == mtf.front()) {
            size_t run = runLength(data + i, n - i, v);
            out = emitRun(run, out, freq);
            i += run;
            continue;
        }
        uint16_t sym = static_cast<uint16_t>(mtf.encode(v) + 1);
        *out++ = sym;
        ++freq[sym];
        ++i;
    }
    *out++ = kEob;
    ++freq[kEob];
    symbols.resize(static_cast<size_t>(out - symbols.data()));
    return symbols;
}

std::vector<uint8_t>
rleMtfDecode(const std::vector<uint16_t> &symbols, size_t cap)
{
    std::vector<uint8_t> out(cap);
    size_t counts[256] = {};
    size_t i = 0;
    size_t n = rleMtfDecode(
        [&]() -> unsigned {
            ATC_CHECK(i < symbols.size(), "RLE stream missing EOB");
            return symbols[i++];
        },
        out.data(), cap, counts);
    ATC_CHECK(i == symbols.size(), "RLE symbols after EOB");
    out.resize(n);
    return out;
}

} // namespace atc::comp

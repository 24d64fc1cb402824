#include "compress/rle.hpp"

#include <cstring>

#include "util/status.hpp"

namespace atc::comp {

namespace {

/** Append the bijective base-2 numeral for a run of @p run zeros. */
void
emitRun(uint64_t run, std::vector<uint16_t> &out)
{
    // run = sum of digit_i * 2^i with digits in {1 (RUNA), 2 (RUNB)}.
    while (run > 0) {
        if (run & 1) {
            out.push_back(kRunA);
            run = (run - 1) >> 1;
        } else {
            out.push_back(kRunB);
            run = (run - 2) >> 1;
        }
    }
}

} // namespace

std::vector<uint16_t>
rleEncode(const uint8_t *data, size_t n)
{
    std::vector<uint16_t> out;
    out.reserve(n / 2 + 16);
    uint64_t run = 0;
    size_t i = 0;
    while (i < n) {
        if (data[i] == 0) {
            // MTF output is dominated by zero runs; skip over them a
            // word at a time before falling back to the byte tail.
            size_t start = i;
            ++i;
            while (i + 8 <= n) {
                uint64_t w;
                std::memcpy(&w, data + i, 8);
                if (w != 0)
                    break;
                i += 8;
            }
            while (i < n && data[i] == 0)
                ++i;
            run += i - start;
            continue;
        }
        emitRun(run, out);
        run = 0;
        out.push_back(static_cast<uint16_t>(data[i]) + 1);
        ++i;
    }
    emitRun(run, out);
    out.push_back(kEob);
    return out;
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

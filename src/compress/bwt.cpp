#include "compress/bwt.hpp"

#include <memory>

#include "util/status.hpp"

namespace atc::comp {

template <typename Word>
void
bwtInverseWith(const uint8_t *data, size_t n, size_t primary,
               const size_t *counts, uint8_t *out)
{
    if (n == 0)
        return;
    ATC_CHECK(primary >= 1 && primary <= n, "BWT primary index out of range");
    ATC_ASSERT((static_cast<uint64_t>(n) >> (8 * sizeof(Word) - 8)) == 0);

    // Conceptual last column L of n+1 rows: the given bytes with the
    // sentinel re-inserted at row `primary`. Row 0 starts with the
    // sentinel; cursor[c] walks the rows starting with byte c.
    Word cursor[256];
    Word sum = 1;
    for (int c = 0; c < 256; ++c) {
        cursor[c] = sum;
        sum += static_cast<Word>(counts[c]);
    }
    ATC_ASSERT(sum == n + 1);

    // tt[r] = (row whose L holds r's first byte) << 8 | r's first byte:
    // following it from the original string's row spells the string.
    std::unique_ptr<Word[]> tt(new Word[n + 1]);
    tt[0] = static_cast<Word>(primary) << 8;
    auto scatter = [&](const uint8_t *d, size_t len, Word row) {
        if (len == 0)
            return;
        uint8_t c = d[0];
        Word cur = cursor[c];
        for (size_t j = 0; j < len; ++j, ++row) {
            uint8_t b = d[j];
            if (b != c) {
                cursor[c] = cur;
                c = b;
                cur = cursor[c];
            }
            tt[cur++] = row << 8 | c;
        }
        cursor[c] = cur;
    };
    scatter(data, primary, 0);
    scatter(data + primary, n - primary, static_cast<Word>(primary) + 1);

    // The original string's row is `primary`; n steps must visit every
    // row but the sentinel's and end on it.
    Word row = static_cast<Word>(primary);
    for (size_t k = 0; k < n; ++k) {
        ATC_CHECK(row != 0, "corrupt BWT stream");
        Word t = tt[row];
        out[k] = static_cast<uint8_t>(t);
        row = t >> 8;
    }
    ATC_CHECK(row == 0, "corrupt BWT stream (cycle mismatch)");
}

template void bwtInverseWith<uint32_t>(const uint8_t *, size_t, size_t,
                                       const size_t *, uint8_t *);
template void bwtInverseWith<uint64_t>(const uint8_t *, size_t, size_t,
                                       const size_t *, uint8_t *);

void
bwtInverse(const uint8_t *data, size_t n, size_t primary,
           const size_t *counts, uint8_t *out)
{
    if (n < (size_t(1) << 24))
        bwtInverseWith<uint32_t>(data, n, primary, counts, out);
    else
        bwtInverseWith<uint64_t>(data, n, primary, counts, out);
}

std::vector<uint8_t>
bwtInverse(const uint8_t *data, size_t n, size_t primary)
{
    size_t counts[256] = {};
    for (size_t i = 0; i < n; ++i)
        counts[data[i]]++;
    std::vector<uint8_t> out(n);
    bwtInverse(data, n, primary, counts, out.data());
    return out;
}

} // namespace atc::comp

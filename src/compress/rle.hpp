/**
 * @file
 * Zero-run-length recoding (bzip2's RUNA/RUNB scheme).
 *
 * After MTF, zeros dominate. Runs of zeros are rewritten as bijective
 * base-2 numerals over two dedicated symbols; nonzero bytes shift up by
 * one. The resulting symbols feed the entropy coder.
 *
 * Alphabet (width kAlphabet = 258):
 *   0       RUNA (run digit, weight 1)
 *   1       RUNB (run digit, weight 2)
 *   2..256  literal bytes 1..255 (value + 1)
 *   257     EOB (end of block)
 */

#ifndef ATC_COMPRESS_RLE_HPP_
#define ATC_COMPRESS_RLE_HPP_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "compress/mtf.hpp"
#include "util/status.hpp"

namespace atc::comp {

/** Symbol values for the zero-run alphabet. */
enum RleSymbol : uint16_t
{
    kRunA = 0,
    kRunB = 1,
    kEob = 257,
};

/** Number of distinct symbols the recoding can produce. */
constexpr int kRleAlphabet = 258;

/**
 * Move-to-front then zero-run recoding of @p n bytes in one pass — the
 * BWC encoder's step between the forward BWT and the entropy coder.
 * A zero rank only ever comes from a run of the MTF front byte, so a
 * run is found by scanning for that byte and emitted as its numeral;
 * any other byte is one MTF step and one literal symbol. The EOB
 * symbol is appended.
 *
 * @param freq kRleAlphabet caller-zeroed counters; each emitted
 *             symbol's counter is incremented
 * @return the symbols, at most n + 1
 */
std::vector<uint16_t> mtfRleEncode(const uint8_t *data, size_t n,
                                   uint64_t *freq);

/**
 * Inverse of mtfRleEncode — the BWC decoder's one pass between the
 * entropy decoder and the inverse BWT. Pulls symbols from @p next
 * until EOB and writes the MTF-decoded bytes straight into @p out: a
 * RUNA/RUNB run is one memset of the front MTF value, a literal one
 * MTF step. Every run is checked against the room left before it is
 * written. @p counts (256 entries, caller-zeroed)
 * accumulates the byte histogram of the output, which is what
 * bwtInverse needs.
 *
 * @param next   callable returning the next symbol (consumes EOB)
 * @param out    destination, @p cap bytes
 * @return bytes written
 * @throws util::Error when a run or literal overflows @p cap or a
 *         symbol is outside the alphabet
 */
template <typename NextSymbol>
size_t
rleMtfDecode(NextSymbol &&next, uint8_t *out, size_t cap, size_t *counts)
{
    MtfCoder mtf;
    size_t pos = 0;
    for (;;) {
        unsigned sym = next();
        if (sym <= kRunB) {
            // Bijective base-2 numeral, least significant digit first.
            // run >= weight - 1, so bounding run bounds weight too.
            size_t run = 0;
            size_t weight = 1;
            do {
                run += weight << sym;
                weight <<= 1;
                if (run > cap - pos)
                    util::raise("RLE run overflows the block");
                sym = next();
            } while (sym <= kRunB);
            uint8_t v = mtf.front();
            std::memset(out + pos, v, run);
            counts[v] += run;
            pos += run;
        }
        if (sym >= kEob) {
            if (sym == kEob)
                return pos;
            util::raise("invalid RLE symbol");
        }
        if (pos == cap)
            util::raise("RLE literal overflows the block");
        uint8_t v = mtf.decode(static_cast<uint8_t>(sym - 1));
        out[pos++] = v;
        counts[v]++;
    }
}

/**
 * rleMtfDecode over a materialized symbol stream, which must end with
 * its one EOB; @p cap bounds the output.
 */
std::vector<uint8_t> rleMtfDecode(const std::vector<uint16_t> &symbols,
                                  size_t cap);

} // namespace atc::comp

#endif // ATC_COMPRESS_RLE_HPP_

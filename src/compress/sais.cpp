#include "compress/sais.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "compress/bwt.hpp"
#include "util/byte_counts.hpp"
#include "util/status.hpp"

namespace atc::comp {

namespace {

// Slot encoding during the induce passes: a slot holds a suffix (or,
// in the LMS-substring sort, its predecessor) as a non-negative value,
// and the sign bit (~x) marks entries that the current pass must not
// induce from. Suffix types are never stored: suffix i is S-type iff
// t[i] < t[i+1], or t[i] == t[i+1] and i+1 is S-type, so comparing a
// position with its neighbour is enough wherever the neighbour's type
// is already known. Suffix n-1 is L-type (the virtual sentinel is
// smaller than every symbol).

/** Symbol counts of the reduced string t[0, n) into c[0, k). */
void
countSymbols(const int32_t *t, int32_t n, int32_t k, int32_t *c)
{
    std::fill(c, c + k, 0);
    for (int32_t i = 0; i < n; ++i)
        ++c[t[i]];
}

/** b[s] = first slot of bucket s. */
void
bucketStarts(const int32_t *c, int32_t *b, int32_t k)
{
    int32_t sum = 0;
    for (int32_t s = 0; s < k; ++s) {
        b[s] = sum;
        sum += c[s];
    }
}

/** b[s] = one past the last slot of bucket s. */
void
bucketEnds(const int32_t *c, int32_t *b, int32_t k)
{
    int32_t sum = 0;
    for (int32_t s = 0; s < k; ++s) {
        sum += c[s];
        b[s] = sum;
    }
}

/**
 * Call @p f(p) for every LMS position p (S-type, L-type predecessor),
 * right to left: skip the trailing L-run, then per S-run whose left
 * end follows an L-type symbol report that left end.
 */
template <typename Char, typename F>
void
forEachLms(const Char *t, int32_t n, F &&f)
{
    int32_t i = n - 1;
    int32_t c0 = t[i];
    int32_t c1;
    do {
        c1 = c0;
    } while (--i >= 0 && (c0 = t[i]) >= c1);
    while (i >= 0) {
        do {
            c1 = c0;
        } while (--i >= 0 && (c0 = t[i]) <= c1);
        if (i >= 0) {
            f(i + 1);
            do {
                c1 = c0;
            } while (--i >= 0 && (c0 = t[i]) >= c1);
        }
    }
}

/**
 * Sort the LMS substrings. On entry every LMS position p but the
 * leftmost is seeded as p-1 at the tail of bucket t[p] (the suffixes
 * left of the leftmost LMS position order no LMS substring, so they
 * are never induced), all other slots 0. On exit the LMS positions are
 * ~-marked in sorted-substring order, all other slots 0.
 */
template <typename Char>
void
sortLmsSubstrings(const Char *t, int32_t *sa, const int32_t *c, int32_t *bkt,
                  int32_t n, int32_t k)
{
    // L pass: a slot holds the predecessor j of its suffix. A plain j
    // is L-type: place suffix j at its bucket head as j-1, ~-marked when
    // j-1 is S-type, and clear the slot. A ~-marked j is S-type: unmark
    // it for the S pass.
    bucketStarts(c, bkt, k);
    int32_t j = n - 1;
    int32_t c1 = t[j];
    int32_t *b = sa + bkt[c1];
    --j;
    *b++ = t[j] < c1 ? ~j : j;
    for (int32_t i = 0; i < n; ++i) {
        j = sa[i];
        if (j > 0) {
            int32_t c0 = t[j];
            if (c0 != c1) {
                bkt[c1] = static_cast<int32_t>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            --j;
            *b++ = t[j] < c1 ? ~j : j;
            sa[i] = 0;
        } else if (j < 0) {
            sa[i] = ~j;
        }
    }

    // S pass: a plain j > 0 is S-type: place suffix j at its bucket
    // tail, as ~j when j is an LMS position (its predecessor is L-type),
    // else as j-1 to be induced further.
    bucketEnds(c, bkt, k);
    c1 = 0;
    b = sa + bkt[c1];
    for (int32_t i = n - 1; i >= 0; --i) {
        j = sa[i];
        if (j > 0) {
            int32_t c0 = t[j];
            if (c0 != c1) {
                bkt[c1] = static_cast<int32_t>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            --j;
            *--b = t[j] > c1 ? ~(j + 1) : j;
            sa[i] = 0;
        }
    }
}

/**
 * Compact the m sorted LMS positions into sa[0, m) and name their
 * substrings: equal substrings get equal names, names rise with the
 * substring order. Each name is stored at sa[m + p/2] (LMS positions
 * are at least two apart), as 1 + name, 0 elsewhere in sa[m, n).
 *
 * @return the number of distinct names
 */
template <typename Char>
int32_t
nameLmsSubstrings(const Char *t, int32_t *sa, int32_t n, int32_t m)
{
    int32_t i = 0;
    int32_t p;
    for (; (p = sa[i]) < 0; ++i)
        sa[i] = ~p;
    if (i < m) {
        for (int32_t j = i++;; ++i) {
            if ((p = sa[i]) < 0) {
                sa[j++] = ~p;
                sa[i] = 0;
                if (j == m)
                    break;
            }
        }
    }

    // Substring lengths, each LMS position p through the next one; the
    // rightmost runs to the end of the text (p + len == n), which no
    // other substring does, and ends on the sentinel.
    int32_t next = n - 1;
    forEachLms(t, n, [&](int32_t lms) {
        sa[m + (lms >> 1)] = next - lms + 1;
        next = lms;
    });

    // Adjacent substrings in sorted order are equal iff their lengths
    // and symbols agree (the types then agree too: both end S-type),
    // unless one of them is the rightmost.
    int32_t name = 0;
    int32_t q = n;
    int32_t qlen = 0;
    for (i = 0; i < m; ++i) {
        p = sa[i];
        int32_t plen = sa[m + (p >> 1)];
        bool diff = true;
        if (plen == qlen && q + plen < n && p + plen < n) {
            int32_t d = 0;
            while (d < plen && t[p + d] == t[q + d])
                ++d;
            diff = d != plen;
        }
        if (diff) {
            ++name;
            q = p;
            qlen = plen;
        }
        sa[m + (p >> 1)] = name;
    }
    return name;
}

/**
 * Final induce from the sorted LMS suffixes (placed at their bucket
 * tails, all other slots 0): the suffix array, or with @p bwt each
 * slot's BWT byte t[j-1] in place of its suffix j.
 *
 * @return the slot of suffix 0 (the sentinel's row) when @p bwt
 */
template <typename Char>
int32_t
induce(const Char *t, int32_t *sa, const int32_t *c, int32_t *bkt,
       int32_t n, int32_t k, bool bwt)
{
    // L pass: a plain suffix j > 0 has an L-type predecessor: place
    // j-1 at its bucket head, ~-marked when j-1's own predecessor is
    // S-type, and mark the slot done (~j, or ~t[j-1] for the BWT). A
    // marked slot is unmarked, so the S pass sees the suffixes it must
    // induce from as plain values.
    bucketStarts(c, bkt, k);
    int32_t j = n - 1;
    int32_t c1 = t[j];
    int32_t *b = sa + bkt[c1];
    *b++ = j > 0 && t[j - 1] < c1 ? ~j : j;
    for (int32_t i = 0; i < n; ++i) {
        j = sa[i];
        if (j > 0) {
            --j;
            int32_t c0 = t[j];
            sa[i] = bwt ? ~c0 : ~(j + 1);
            if (c0 != c1) {
                bkt[c1] = static_cast<int32_t>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            *b++ = j > 0 && t[j - 1] < c1 ? ~j : j;
        } else if (j < 0) {
            sa[i] = ~j;
        }
    }

    // S pass: a plain j > 0 has an S-type predecessor: place j-1 at its
    // bucket tail, ~-marked (as ~(j-1), or ~t[j-2] for the BWT) when it
    // has no S-type predecessor in turn. Marked slots are final and
    // only unmarked; 0 is suffix 0.
    bucketEnds(c, bkt, k);
    int32_t primary = -1;
    c1 = 0;
    b = sa + bkt[c1];
    for (int32_t i = n - 1; i >= 0; --i) {
        j = sa[i];
        if (j > 0) {
            --j;
            int32_t c0 = t[j];
            if (bwt)
                sa[i] = c0;
            if (c0 != c1) {
                bkt[c1] = static_cast<int32_t>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            *--b = j > 0 && t[j - 1] > c1
                       ? ~(bwt ? static_cast<int32_t>(t[j - 1]) : j)
                       : j;
        } else if (j < 0) {
            sa[i] = ~j;
        } else {
            primary = i;
        }
    }
    return primary;
}

/**
 * SA-IS over t[0, n) with symbols in [0, k).
 *
 * @param sa  n + fs words: sa[0, n) receives the result, sa[n, n + fs)
 *            is free space the recursion may use
 * @param bkt 2k words outside sa[0, n + fs): bkt[0, k) holds the symbol
 *            counts of t and is kept, bkt[k, 2k) is scratch
 * @param bwt have the final induce write BWT bytes
 * @return induce's result
 */
template <typename Char>
int32_t
sais(const Char *t, int32_t *sa, int32_t fs, int32_t n, int32_t k,
     int32_t *bkt, bool bwt)
{
    const int32_t *c = bkt;
    int32_t *b_ends = bkt + k;

    // Stage 1: seed the LMS positions. Each seed is written when the
    // next one (to its left) is found, so the leftmost stays pending in
    // `slot`.
    bucketEnds(c, b_ends, k);
    std::fill(sa, sa + n, 0);
    int32_t pending = 0;
    int32_t *slot = &pending;
    int32_t j = n;
    int32_t m = 0;
    forEachLms(t, n, [&](int32_t lms) {
        *slot = j;
        slot = sa + --b_ends[t[lms]];
        j = lms - 1;
        ++m;
    });

    int32_t names;
    if (m > 1) {
        sortLmsSubstrings(t, sa, c, bkt + k, n, k);
        names = nameLmsSubstrings(t, sa, n, m);
    } else if (m == 1) {
        *slot = j + 1; // already in its final stage-3 place
        names = 1;
    } else {
        names = 0;
    }

    // Stage 2: if names repeat, sort the reduced string (the names in
    // text order, gathered into the tail of sa) recursively, then map
    // its suffixes back to LMS positions. Otherwise sa[0, m) already
    // holds the LMS suffixes in order.
    if (names < m) {
        int32_t gap = n + fs - 2 * m; // between sa[0, m) and ra
        int32_t *ra = sa + n + fs - m;
        j = m - 1;
        for (int32_t i = m + (n >> 1) - 1; i >= m; --i) {
            if (sa[i] != 0)
                ra[j--] = sa[i] - 1;
        }
        // The child's buckets take the end of the gap when they fit,
        // and the child's free space shrinks to what is left.
        std::unique_ptr<int32_t[]> heap;
        int32_t *child_bkt;
        if (2 * names <= gap) {
            gap -= 2 * names;
            child_bkt = sa + m + gap;
        } else {
            heap.reset(new int32_t[2 * static_cast<size_t>(names)]);
            child_bkt = heap.get();
        }
        countSymbols(ra, m, names, child_bkt);
        sais<int32_t>(ra, sa, gap, m, names, child_bkt, false);
        heap.reset();

        j = m - 1;
        forEachLms(t, n, [&](int32_t lms) { ra[j--] = lms; });
        for (int32_t i = 0; i < m; ++i)
            sa[i] = ra[sa[i]];
    }

    // Stage 3: move the sorted LMS suffixes to their bucket tails,
    // right to left, clearing everything else; then induce.
    if (m > 1) {
        bucketEnds(c, b_ends, k);
        int32_t i = m - 1;
        j = n;
        int32_t p = sa[m - 1];
        int32_t c1 = t[p];
        do {
            const int32_t c0 = c1;
            int32_t q = b_ends[c0];
            while (j > q)
                sa[--j] = 0;
            do {
                sa[--j] = p;
                if (--i < 0)
                    break;
                p = sa[i];
            } while ((c1 = t[p]) == c0);
        } while (i >= 0);
        while (j > 0)
            sa[--j] = 0;
    }
    return induce(t, sa, c, bkt + k, n, k, bwt);
}

/** Byte counts of the top-level text as bucket sizes. */
void
countBytes(const uint8_t *data, size_t n, int32_t *c)
{
    size_t cnt[256];
    util::byteCounts(data, n, cnt);
    for (int s = 0; s < 256; ++s)
        c[s] = static_cast<int32_t>(cnt[s]);
}

void
checkLength(size_t n)
{
    ATC_CHECK(n < (size_t(1) << 31),
              "suffix sorting needs fewer than 2^31 bytes");
}

} // namespace

std::vector<int32_t>
suffixArray(const uint8_t *data, size_t n)
{
    if (n == 0)
        return {};
    checkLength(n);
    const auto len = static_cast<int32_t>(n);
    int32_t bkt[2 * 256];
    countBytes(data, n, bkt);
    std::vector<int32_t> sa(n);
    sais<uint8_t>(data, sa.data(), 0, len, 256, bkt, false);
    return sa;
}

BwtResult
bwtForward(const uint8_t *data, size_t n)
{
    BwtResult result;
    if (n == 0)
        return result;
    checkLength(n);
    const auto len = static_cast<int32_t>(n);
    int32_t bkt[2 * 256];
    countBytes(data, n, bkt);
    result.data.resize(n);
    uint8_t *out = result.data.data();

    // One repeated byte (constant high bytesort planes): every row of
    // the matrix ends in it, and the sentinel's row is the last.
    if (bkt[data[0]] == len) {
        std::memcpy(out, data, n);
        result.primary = static_cast<uint32_t>(n);
        return result;
    }

    std::unique_ptr<int32_t[]> sa(new int32_t[n]);
    int32_t pidx = sais<uint8_t>(data, sa.get(), 0, len, 256, bkt, true);
    ATC_ASSERT(pidx >= 0 && pidx < len);

    // Row 0 is the sentinel suffix, ending in the last byte; rows
    // 1..n are the slots, minus suffix 0's (the sentinel row).
    out[0] = data[n - 1];
    for (int32_t i = 0; i < pidx; ++i)
        out[i + 1] = static_cast<uint8_t>(sa[i]);
    for (int32_t i = pidx + 1; i < len; ++i)
        out[i] = static_cast<uint8_t>(sa[i]);
    result.primary = static_cast<uint32_t>(pidx) + 1;
    ATC_ASSERT(result.primary >= 1 && result.primary <= n);
    return result;
}

} // namespace atc::comp

#include "compress/huffman.hpp"

#include <algorithm>
#include <queue>

#include "util/status.hpp"

namespace atc::comp {

namespace {

/** Tree-derived (unlimited) depths for each used symbol. */
std::vector<uint8_t>
treeDepths(const std::vector<uint64_t> &freq)
{
    const int n = static_cast<int>(freq.size());
    std::vector<uint8_t> depth(n, 0);

    std::vector<int> used;
    for (int i = 0; i < n; ++i) {
        if (freq[i] > 0)
            used.push_back(i);
    }
    if (used.empty())
        return depth;
    if (used.size() == 1) {
        depth[used[0]] = 1;
        return depth;
    }

    // Node ids: [0, n) leaves, internal nodes appended.
    struct Item
    {
        uint64_t weight;
        int node;
        bool operator>(const Item &o) const
        {
            // Tie-break on node id for deterministic trees.
            return weight != o.weight ? weight > o.weight : node > o.node;
        }
    };
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    std::vector<int> parent;
    parent.reserve(2 * used.size());
    parent.assign(n, -1);
    for (int i : used)
        heap.push({freq[i], i});

    while (heap.size() > 1) {
        Item a = heap.top();
        heap.pop();
        Item b = heap.top();
        heap.pop();
        int id = static_cast<int>(parent.size());
        parent.push_back(-1);
        parent[a.node] = id;
        parent[b.node] = id;
        heap.push({a.weight + b.weight, id});
    }

    for (int i : used) {
        int d = 0;
        for (int v = i; parent[v] >= 0; v = parent[v])
            ++d;
        ATC_ASSERT(d >= 1 && d < 64);
        depth[i] = static_cast<uint8_t>(d);
    }
    return depth;
}

} // namespace

std::vector<uint8_t>
huffmanLengths(const std::vector<uint64_t> &freq, int limit)
{
    ATC_ASSERT(limit >= 1 && limit <= kMaxCodeLen);
    std::vector<uint8_t> len = treeDepths(freq);

    // Clamp over-long codes, then restore the Kraft inequality
    // sum 2^-len <= 1 by deepening the shallowest fixable codes.
    std::vector<int> used;
    uint64_t kraft = 0; // scaled by 2^limit
    for (size_t i = 0; i < len.size(); ++i) {
        if (len[i] == 0)
            continue;
        if (len[i] > limit)
            len[i] = static_cast<uint8_t>(limit);
        used.push_back(static_cast<int>(i));
        kraft += 1ull << (limit - len[i]);
    }
    ATC_ASSERT(used.size() <= (1ull << limit));

    const uint64_t budget = 1ull << limit;
    while (kraft > budget) {
        // Deepen a symbol with the largest length below the limit; that
        // is the smallest possible step toward a valid code.
        int best = -1;
        for (int i : used) {
            if (len[i] < limit && (best < 0 || len[i] > len[best]))
                best = i;
        }
        ATC_ASSERT(best >= 0);
        kraft -= 1ull << (limit - len[best] - 1);
        ++len[best];
    }
    return len;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint64_t> &freq, int limit)
    : lengths_(huffmanLengths(freq, limit))
{
    buildCodes();
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint8_t> &lengths)
    : lengths_(lengths)
{
    buildCodes();
}

void
HuffmanEncoder::buildCodes()
{
    packed_.assign(lengths_.size(), 0);

    // Canonical assignment: codes ordered by (length, symbol).
    std::vector<int> order;
    for (size_t i = 0; i < lengths_.size(); ++i) {
        if (lengths_[i] > 0)
            order.push_back(static_cast<int>(i));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return lengths_[a] != lengths_[b] ? lengths_[a] < lengths_[b]
                                          : a < b;
    });

    uint32_t code = 0;
    int prev_len = 0;
    for (int sym : order) {
        ATC_ASSERT(lengths_[sym] <= kMaxCodeLen);
        code <<= (lengths_[sym] - prev_len);
        prev_len = lengths_[sym];
        packed_[sym] = code++ << 8 | lengths_[sym];
    }
}

void
HuffmanEncoder::writeTable(util::BitWriter &bw) const
{
    for (uint8_t l : lengths_)
        bw.writeBits(l, 5);
}

HuffmanDecoder::HuffmanDecoder(const std::vector<uint8_t> &lengths)
{
    for (size_t i = 0; i < lengths.size(); ++i) {
        ATC_CHECK(lengths[i] <= kMaxCodeLen, "huffman length out of range");
        if (lengths[i] > 0) {
            count_[lengths[i]]++;
            sorted_symbols_.push_back(static_cast<uint16_t>(i));
        }
    }
    std::sort(sorted_symbols_.begin(), sorted_symbols_.end(),
              [&](uint16_t a, uint16_t b) {
                  return lengths[a] != lengths[b] ? lengths[a] < lengths[b]
                                                  : a < b;
              });

    uint32_t code = 0;
    int32_t index = 0;
    uint64_t kraft = 0;
    for (int l = 1; l <= kMaxCodeLen; ++l) {
        code <<= 1;
        first_code_[l] = code;
        first_index_[l] = index;
        code += count_[l];
        index += count_[l];
        kraft += static_cast<uint64_t>(count_[l]) << (kMaxCodeLen - l);
    }
    ATC_CHECK(kraft <= (1ull << kMaxCodeLen), "invalid huffman table");

    for (int l = 1; l <= kLutBits; ++l) {
        for (uint32_t k = 0; k < count_[l]; ++k) {
            uint32_t sym = sorted_symbols_[first_index_[l] + k];
            uint32_t lo = (first_code_[l] + k) << (kLutBits - l);
            uint32_t hi = lo + (1u << (kLutBits - l));
            for (uint32_t i = lo; i < hi; ++i)
                lut_[i] = sym << 8 | static_cast<uint32_t>(l);
        }
    }
}

HuffmanDecoder
HuffmanDecoder::readTable(util::BitReader &br, int alphabet)
{
    std::vector<uint8_t> lengths(alphabet);
    for (int i = 0; i < alphabet; ++i)
        lengths[i] = static_cast<uint8_t>(br.readBits(5));
    return HuffmanDecoder(lengths);
}

int
HuffmanDecoder::decodeSlow(util::BitReader &br) const
{
    uint32_t code = 0;
    for (int l = 1; l <= kMaxCodeLen; ++l) {
        code = (code << 1) | br.readBit();
        uint32_t offset = code - first_code_[l];
        if (code >= first_code_[l] && offset < count_[l])
            return sorted_symbols_[first_index_[l] + offset];
    }
    util::raise("invalid huffman code in stream");
}

} // namespace atc::comp

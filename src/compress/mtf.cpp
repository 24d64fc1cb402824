#include "compress/mtf.hpp"

#include <cstring>

namespace atc::comp {

MtfCoder::MtfCoder()
{
    reset();
}

void
MtfCoder::reset()
{
    for (int i = 0; i < 256; ++i)
        order_[i] = static_cast<uint8_t>(i);
}

uint8_t
MtfCoder::encode(uint8_t value)
{
    if (order_[0] == value)
        return 0;
    // Locate the rank with a vectorized scan, then shift the prefix
    // down in one memmove — the table always contains all 256 values,
    // so the search cannot miss.
    const uint8_t *pos = static_cast<const uint8_t *>(
        std::memchr(order_, value, sizeof(order_)));
    size_t rank = static_cast<size_t>(pos - order_);
    std::memmove(order_ + 1, order_, rank);
    order_[0] = value;
    return static_cast<uint8_t>(rank);
}

std::vector<uint8_t>
mtfEncode(const uint8_t *data, size_t n)
{
    MtfCoder coder;
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = coder.encode(data[i]);
    return out;
}

} // namespace atc::comp

#include "util/crc32.hpp"

#include <array>

namespace atc::util {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: t[0] is the classic byte table; t[k][b] is the
 * CRC of byte b followed by k zero bytes, so eight table lookups fold
 * eight input bytes into the state at once.
 */
Tables
makeTables()
{
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
        for (int k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
    return t;
}

const Tables &
tables()
{
    static const Tables t = makeTables();
    return t;
}

uint32_t
loadLE32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // namespace

void
Crc32::update(const uint8_t *data, size_t n)
{
    const Tables &t = tables();
    uint32_t c = state_;
    for (; n >= 8; n -= 8, data += 8) {
        uint32_t lo = loadLE32(data) ^ c;
        uint32_t hi = loadLE32(data + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
            t[0][hi >> 24];
    }
    for (; n > 0; --n)
        c = t[0][(c ^ *data++) & 0xFF] ^ (c >> 8);
    state_ = c;
}

uint32_t
crc32(const uint8_t *data, size_t n)
{
    Crc32 crc;
    crc.update(data, n);
    return crc.value();
}

} // namespace atc::util

#include "util/codec.hh"

namespace dvp
{

namespace
{

/**
 * Slicing-by-8 tables for the reflected 0xEDB88320 polynomial, built
 * once.  t[0] is the classic bytewise table; t[k][b] is the CRC of
 * byte b followed by k zero bytes, so one step can fold eight bytes.
 */
struct CrcTables
{
    uint32_t t[8][256];
};

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables x{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            x.t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; ++i)
            for (int k = 1; k < 8; ++k)
                x.t[k][i] = (x.t[k - 1][i] >> 8) ^
                            x.t[0][x.t[k - 1][i] & 0xFF];
        return x;
    }();
    return tables;
}

} // namespace

uint32_t
crc32(const void *data, size_t n)
{
    const auto &t = crcTables().t;
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        // Little-endian hosts only (matches the rest of the tree).
        uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= c;
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace dvp

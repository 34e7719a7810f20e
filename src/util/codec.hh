/**
 * @file
 * The one byte codec of every format dvpdb writes: wire frames
 * (src/net), WAL records and the manifest (src/durability) and the
 * checkpoint image (src/persist).  Writer appends fixed-width
 * little-endian integers and u32-length-prefixed strings; Reader reads
 * them back bounds-checked; crc32 is the integrity check every one of
 * those formats carries.
 */

#ifndef DVP_UTIL_CODEC_HH
#define DVP_UTIL_CODEC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace dvp
{

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected) of @p n bytes, computed
 * slicing-by-8: eight table lookups fold eight input bytes per step.
 */
uint32_t crc32(const void *data, size_t n);

/** Append-only encoder (little-endian). */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void u16(uint16_t v) { raw(&v, 2); }
    void u32(uint32_t v) { raw(&v, 4); }
    void u64(uint64_t v) { raw(&v, 8); }
    void i64(int64_t v) { raw(&v, 8); }

    /** u32 byte length + raw bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf.append(s);
    }

    /** Raw bytes, no length prefix. */
    void append(std::string_view s) { buf.append(s); }

    void reserve(size_t n) { buf.reserve(n); }

    const std::string &bytes() const { return buf; }
    size_t size() const { return buf.size(); }

    /** Move the encoded bytes out (the writer is left empty). */
    std::string take() { return std::move(buf); }

  private:
    void
    raw(const void *p, size_t n)
    {
        // Little-endian hosts only (matches the rest of the tree).
        buf.append(static_cast<const char *>(p), n);
    }

    std::string buf;
};

/**
 * Bounds-checked decoder.  Every read returns a value (zero / empty
 * past the end) and latches ok() = false on the first overrun, so
 * decode routines can read a whole record and check once.  A count
 * read from the bytes is checked against remaining() before anything
 * is sized from it.
 */
class Reader
{
  public:
    Reader(const char *data, size_t n) : p(data), n(n) {}
    explicit Reader(const std::string &s) : Reader(s.data(), s.size()) {}

    uint8_t
    u8()
    {
        uint8_t v = 0;
        take(&v, 1);
        return v;
    }

    uint16_t
    u16()
    {
        uint16_t v = 0;
        take(&v, 2);
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        take(&v, 4);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        take(&v, 8);
        return v;
    }

    int64_t
    i64()
    {
        int64_t v = 0;
        take(&v, 8);
        return v;
    }

    std::string
    str()
    {
        uint32_t len = u32();
        if (len > n - pos || !ok_) { // n - pos is valid: pos <= n
            ok_ = false;
            return {};
        }
        std::string s(p + pos, len);
        pos += len;
        return s;
    }

    /** True until a read ran past the end of the bytes. */
    bool ok() const { return ok_; }

    /** True when the bytes were consumed exactly. */
    bool exhausted() const { return ok_ && pos == n; }

    /** Unconsumed bytes (0 after an overrun). */
    size_t remaining() const { return ok_ ? n - pos : 0; }

    /** Bytes consumed so far. */
    size_t offset() const { return pos; }

    /** Consume @p bytes unread (an overrun latches !ok()). */
    void
    skip(size_t bytes)
    {
        if (bytes > n - pos)
            ok_ = false;
        else
            pos += bytes;
    }

  private:
    void
    take(void *out, size_t bytes)
    {
        if (bytes > n - pos) {
            ok_ = false;
            return;
        }
        std::memcpy(out, p + pos, bytes);
        pos += bytes;
    }

    const char *p;
    size_t n;
    size_t pos = 0;
    bool ok_ = true;
};

} // namespace dvp

#endif // DVP_UTIL_CODEC_HH

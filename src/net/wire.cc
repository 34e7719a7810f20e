#include "net/wire.hh"

#include <algorithm>

namespace dvp::net
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

namespace
{

/**
 * Fill in the header of @p frame, whose first kHeaderBytes are
 * reserved for it and whose remaining bytes are the payload.
 */
void
sealFrame(std::string &frame, FrameType type)
{
    const char *payload = frame.data() + kHeaderBytes;
    uint32_t length = static_cast<uint32_t>(frame.size() - kHeaderBytes);
    Writer h;
    h.u16(kMagic);
    h.u8(kWireVersion);
    h.u8(static_cast<uint8_t>(type));
    h.u32(length);
    h.u32(crc32(payload, length));
    h.u32(0); // reserved
    frame.replace(0, kHeaderBytes, h.bytes());
}

} // namespace

std::string
encodeFrame(FrameType type, const std::string &payload)
{
    std::string frame;
    frame.reserve(kHeaderBytes + payload.size());
    frame.append(kHeaderBytes, '\0');
    frame.append(payload);
    sealFrame(frame, type);
    return frame;
}

void
FrameAssembler::feed(const char *data, size_t n)
{
    if (error())
        return;
    // Drop consumed prefix lazily so long sessions don't grow the
    // buffer without bound.
    if (consumed > 0 && consumed == buf.size()) {
        buf.clear();
        consumed = 0;
    } else if (consumed > 4096 && consumed > buf.size() / 2) {
        buf.erase(0, consumed);
        consumed = 0;
    }
    buf.append(data, n);
}

bool
FrameAssembler::next(Frame &out)
{
    if (error())
        return false;
    if (buf.size() - consumed < kHeaderBytes)
        return false;

    Reader hdr(buf.data() + consumed, kHeaderBytes);
    uint16_t magic = hdr.u16();
    uint8_t version = hdr.u8();
    uint8_t type = hdr.u8();
    uint32_t length = hdr.u32();
    uint32_t crc = hdr.u32();
    uint32_t reserved = hdr.u32();

    if (magic != kMagic) {
        err = "bad frame magic";
        return false;
    }
    if (version != kWireVersion) {
        err = "unsupported protocol version " + std::to_string(version);
        return false;
    }
    if (reserved != 0) {
        err = "nonzero reserved header bits";
        return false;
    }
    if (length > kMaxPayload) {
        err = "oversized frame (" + std::to_string(length) + " bytes)";
        return false;
    }
    if (type < static_cast<uint8_t>(FrameType::Hello) ||
        type > static_cast<uint8_t>(FrameType::Close)) {
        err = "unknown frame type " + std::to_string(type);
        return false;
    }

    if (buf.size() - consumed < kHeaderBytes + length)
        return false; // payload still in flight

    const char *payload = buf.data() + consumed + kHeaderBytes;
    if (crc32(payload, length) != crc) {
        err = "payload CRC mismatch";
        return false;
    }

    out.type = static_cast<FrameType>(type);
    out.payload.assign(payload, length);
    consumed += kHeaderBytes + length;
    return true;
}

// ---------------------------------------------------------------------
// Typed payloads.
// ---------------------------------------------------------------------

std::string
encodeHello(const HelloBody &b)
{
    Writer w;
    w.u32(b.wireVersion);
    w.str(b.clientName);
    return w.bytes();
}

bool
decodeHello(const std::string &payload, HelloBody &out)
{
    Reader r(payload);
    out.wireVersion = r.u32();
    out.clientName = r.str();
    return r.exhausted();
}

std::string
encodeHelloOk(const HelloOkBody &b)
{
    Writer w;
    w.u32(b.wireVersion);
    w.str(b.serverName);
    w.u64(b.sessionId);
    return w.bytes();
}

bool
decodeHelloOk(const std::string &payload, HelloOkBody &out)
{
    Reader r(payload);
    out.wireVersion = r.u32();
    out.serverName = r.str();
    out.sessionId = r.u64();
    return r.exhausted();
}

namespace
{

/** Append one TLV entry: u8 tag + u32 length + value bytes. */
void
putTlv(Writer &w, uint8_t tag, const std::string &value)
{
    w.u8(tag);
    w.str(value);
}

/**
 * Consume the TLV extension block at the reader's tail, dispatching
 * each known tag to @p handle(tag, value reader) and skipping unknown
 * ones.  Returns false on a malformed block (truncated length).
 */
template <typename Fn>
bool
readTlvs(Reader &r, Fn handle)
{
    while (r.remaining() > 0) {
        uint8_t tag = r.u8();
        std::string value = r.str();
        if (!r.ok())
            return false;
        Reader vr(value);
        handle(tag, vr);
    }
    return r.exhausted();
}

} // namespace

std::string
encodeQuery(const QueryBody &b)
{
    Writer w;
    w.str(b.sql);
    if (b.hasTraceId) {
        Writer v;
        v.u64(b.traceId);
        putTlv(w, kExtTraceId, v.bytes());
    }
    return w.bytes();
}

bool
decodeQuery(const std::string &payload, QueryBody &out)
{
    Reader r(payload);
    out.sql = r.str();
    out.hasTraceId = false;
    out.traceId = 0;
    return readTlvs(r, [&out](uint8_t tag, Reader &v) {
        if (tag == kExtTraceId) {
            out.traceId = v.u64();
            out.hasTraceId = v.ok();
        }
    });
}

std::string
encodeError(const ErrorBody &b)
{
    Writer w;
    w.u16(static_cast<uint16_t>(b.code));
    w.str(b.message);
    return w.bytes();
}

bool
decodeError(const std::string &payload, ErrorBody &out)
{
    Reader r(payload);
    out.code = static_cast<ErrorCode>(r.u16());
    out.message = r.str();
    return r.exhausted();
}

ResultWriter::ResultWriter(const ResultBody &head, uint32_t nrows)
    : head(head)
{
    static_assert(kHeaderBytes == 16);
    w.u64(0); // the header, filled in by finish()
    w.u64(0);
    w.u8(static_cast<uint8_t>(head.kind));
    w.str(head.message);
    w.u32(static_cast<uint32_t>(head.columns.size()));
    for (const auto &c : head.columns)
        w.str(c);
    w.u32(static_cast<uint32_t>(head.oids.size()));
    for (int64_t oid : head.oids)
        w.i64(oid);
    w.u32(nrows);
}

std::string
ResultWriter::finish(uint64_t digest)
{
    w.u64(digest);
    w.u64(head.checksum);
    w.u64(head.execNs);
    if (head.hasTraceId) {
        Writer v;
        v.u64(head.traceId);
        putTlv(w, kExtTraceId, v.bytes());
    }
    if (!head.opStats.empty()) {
        Writer v;
        v.u32(static_cast<uint32_t>(head.opStats.size()));
        for (const auto &[key, value] : head.opStats) {
            v.str(key);
            v.u64(value);
        }
        putTlv(w, kExtOpStats, v.bytes());
    }
    std::string frame = w.take();
    sealFrame(frame, FrameType::Result);
    return frame;
}

namespace
{

/**
 * Index the @p nrows rows at @p r's position into @p cells and
 * @p rowStart (see DecodedRows), checking
 * every cell's bytes against the payload end.  Each cell takes at
 * least one byte, so the index never outgrows the payload's length in
 * u32 entries.
 */
bool
indexRows(const std::string &payload, Reader &r, uint32_t nrows,
          std::vector<uint32_t> &cells, std::vector<uint32_t> &rowStart)
{
    const char *base = payload.data();
    const char *end = base + payload.size();
    cells.clear();
    rowStart.clear();
    rowStart.reserve(size_t{nrows} + 1);
    for (uint32_t i = 0; i < nrows; ++i) {
        uint32_t ncells = r.u32();
        if (!r.ok() || ncells > r.remaining())
            return false;
        if (i == 0)
            cells.reserve(std::min(size_t{ncells} * nrows, r.remaining()));
        rowStart.push_back(static_cast<uint32_t>(cells.size()));
        const char *p = base + r.offset();
        for (uint32_t j = 0; j < ncells; ++j) {
            if (p == end)
                return false;
            cells.push_back(static_cast<uint32_t>(p - base));
            switch (static_cast<CellKind>(*p)) {
              case CellKind::Null:
                p += 1;
                break;
              case CellKind::Int:
                if (end - p < 9)
                    return false;
                p += 9;
                break;
              case CellKind::Str: {
                if (end - p < 5)
                    return false;
                uint32_t len;
                std::memcpy(&len, p + 1, 4);
                if (static_cast<size_t>(end - p - 5) < len)
                    return false;
                p += 5 + size_t{len};
                break;
              }
              default:
                return false;
            }
        }
        r.skip(static_cast<size_t>(p - base) - r.offset());
    }
    rowStart.push_back(static_cast<uint32_t>(cells.size()));
    return true;
}

/** Everything decodeResult() does but take the payload over. */
bool
decodeResultInto(const std::string &payload, ResultBody &out,
                 std::vector<uint32_t> &cells,
                 std::vector<uint32_t> &rowStart)
{
    if (payload.size() > kMaxPayload)
        return false;
    Reader r(payload);
    out.kind = static_cast<ResultBody::Kind>(r.u8());
    out.message = r.str();
    uint32_t ncols = r.u32();
    // Collection counts are validated against the bytes remaining (a
    // column takes at least 4, an oid 8, a row 4, an operator stat 12)
    // so a corrupt count cannot trigger a huge allocation before the
    // reader notices the overrun.
    if (!r.ok() || ncols > r.remaining() / 4)
        return false;
    out.columns.clear();
    out.columns.reserve(ncols);
    for (uint32_t i = 0; i < ncols && r.ok(); ++i)
        out.columns.push_back(r.str());
    uint32_t noids = r.u32();
    if (!r.ok() || noids > r.remaining() / 8)
        return false;
    out.oids.resize(noids);
    for (uint32_t i = 0; i < noids; ++i)
        out.oids[i] = r.i64();
    uint32_t nrows = r.u32();
    if (!r.ok() || nrows > r.remaining() / 4 ||
        !indexRows(payload, r, nrows, cells, rowStart))
        return false;
    out.digest = r.u64();
    out.checksum = r.u64();
    out.execNs = r.u64();
    out.hasTraceId = false;
    out.traceId = 0;
    out.opStats.clear();
    return readTlvs(r, [&out](uint8_t tag, Reader &v) {
        if (tag == kExtTraceId) {
            out.traceId = v.u64();
            out.hasTraceId = v.ok();
        } else if (tag == kExtOpStats) {
            uint32_t n = v.u32();
            if (!v.ok() || n > v.remaining() / 12)
                return;
            out.opStats.reserve(n);
            for (uint32_t i = 0; i < n && v.ok(); ++i) {
                std::string key = v.str();
                uint64_t value = v.u64();
                if (v.ok())
                    out.opStats.emplace_back(std::move(key), value);
            }
        }
    });
}

} // namespace

bool
decodeResult(std::string payload, ResultBody &out, DecodedRows &rows)
{
    if (!decodeResultInto(payload, out, rows.cells, rows.rowStart)) {
        rows = DecodedRows{};
        return false;
    }
    rows.payload = std::move(payload);
    return true;
}

std::string
encodeStats(const StatsBody &b)
{
    Writer w;
    w.u32(static_cast<uint32_t>(b.entries.size()));
    for (const auto &[key, value] : b.entries) {
        w.str(key);
        w.u64(value);
    }
    return w.bytes();
}

bool
decodeStats(const std::string &payload, StatsBody &out)
{
    Reader r(payload);
    uint32_t n = r.u32();
    if (!r.ok() || n > payload.size())
        return false;
    out.entries.clear();
    out.entries.reserve(n);
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
        std::string key = r.str();
        uint64_t value = r.u64();
        out.entries.emplace_back(std::move(key), value);
    }
    return r.exhausted();
}

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello: return "HELLO";
      case FrameType::HelloOk: return "HELLO_OK";
      case FrameType::Query: return "QUERY";
      case FrameType::Result: return "RESULT";
      case FrameType::Error: return "ERROR";
      case FrameType::Stats: return "STATS";
      case FrameType::StatsResult: return "STATS_RESULT";
      case FrameType::Close: return "CLOSE";
    }
    return "?";
}

const char *
errorCodeName(ErrorCode c)
{
    switch (c) {
      case ErrorCode::None: return "NONE";
      case ErrorCode::Parse: return "PARSE_ERROR";
      case ErrorCode::Exec: return "EXEC_ERROR";
      case ErrorCode::ServerBusy: return "SERVER_BUSY";
      case ErrorCode::ShuttingDown: return "SHUTTING_DOWN";
      case ErrorCode::Protocol: return "PROTOCOL_ERROR";
      case ErrorCode::Unsupported: return "UNSUPPORTED";
      case ErrorCode::ReadOnly: return "READ_ONLY";
      case ErrorCode::ResultTooLarge: return "RESULT_TOO_LARGE";
      case ErrorCode::ConnectionLost: return "CONNECTION_LOST";
    }
    return "?";
}

} // namespace dvp::net

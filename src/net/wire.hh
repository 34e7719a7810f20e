/**
 * @file
 * The DVP wire protocol: length-prefixed binary frames shared by the
 * TCP server (src/server) and the client library (src/client).
 *
 * Every frame is a fixed 16-byte header followed by a payload:
 *
 *   offset  size  field
 *        0     2  magic 0xD59A (little-endian)
 *        2     1  protocol version (kWireVersion)
 *        3     1  frame type (FrameType)
 *        4     4  payload length in bytes (little-endian)
 *        8     4  CRC-32 of the payload (little-endian)
 *       12     4  reserved, must be zero
 *
 * The magic + version reject cross-protocol garbage up front, the
 * length is sanity-capped at kMaxPayload, and the CRC covers the whole
 * payload, so a corrupted or truncated stream can never be delivered
 * as a valid frame.  Payload contents are encoded with the shared byte
 * codec (util/codec.hh): fixed-width little-endian integers and
 * u32-length-prefixed strings.
 *
 * The conversation is strictly request/response on the client side:
 * HELLO -> HELLO_OK, then any number of QUERY -> RESULT|ERROR or
 * STATS -> STATS_RESULT exchanges, then CLOSE.  The server additionally
 * pushes ERROR frames for protocol violations and typed rejections
 * (SERVER_BUSY, SHUTTING_DOWN) — see server.hh for the session rules.
 *
 * Feature level: the header version byte stays kWireVersion; the HELLO
 * exchange carries a *feature level* instead.  The client advertises
 * the highest level it speaks in HelloBody::wireVersion, and the server
 * refuses anything below kFeatureLevel (2) with PROTOCOL_ERROR and
 * replies kFeatureLevel in HelloOkBody::wireVersion.  At level 2, QUERY
 * and RESULT bodies append a TLV extension block after the fixed
 * fields — u8 tag + u32 length + value per entry; decoders skip
 * unknown tags, so later levels can add tags without renegotiating.
 */

#ifndef DVP_NET_WIRE_HH
#define DVP_NET_WIRE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/codec.hh"

namespace dvp::net
{

/** Protocol version spoken by this tree (the frame-header byte). */
constexpr uint8_t kWireVersion = 1;

/**
 * The one feature level this tree speaks (see the file comment): QUERY
 * and RESULT bodies carry the trace-id and operator-summary TLVs.
 */
constexpr uint32_t kFeatureLevel = 2;

/** TLV tags of the QUERY/RESULT extension block. */
constexpr uint8_t kExtTraceId = 1; ///< u64 client-chosen trace id
constexpr uint8_t kExtOpStats = 2; ///< u32 count + (str key, u64 value)*

/** Header magic (little-endian on the wire). */
constexpr uint16_t kMagic = 0xD59A;

/** Fixed header size in bytes. */
constexpr size_t kHeaderBytes = 16;

/** Hard cap on payload length; larger lengths are protocol errors. */
constexpr uint32_t kMaxPayload = 64u << 20;

/** Frame types. */
enum class FrameType : uint8_t
{
    Hello = 1,       ///< client -> server: version + client name
    HelloOk = 2,     ///< server -> client: version + name + session id
    Query = 3,       ///< client -> server: one SQL statement
    Result = 4,      ///< server -> client: rows or a message
    Error = 5,       ///< server -> client: typed error
    Stats = 6,       ///< client -> server: request server statistics
    StatsResult = 7, ///< server -> client: key/value counters
    Close = 8,       ///< client -> server: orderly goodbye
};

/** Typed error codes carried by Error frames. */
enum class ErrorCode : uint16_t
{
    None = 0,
    Parse = 1,        ///< SQL did not parse
    Exec = 2,         ///< statement failed during execution
    ServerBusy = 3,   ///< admission queue past the --max-inflight mark
    ShuttingDown = 4, ///< server is draining; no new statements
    Protocol = 5,     ///< malformed frame or out-of-order exchange
    Unsupported = 6,  ///< statement kind the server refuses (e.g. LOAD)
    ReadOnly = 7,     ///< writes (INSERT) disabled on this server
    ResultTooLarge = 8, ///< RESULT payload would pass kMaxPayload

    /**
     * Client-side only, never sent on the wire: the connection was
     * down, or failed or closed before a whole response arrived.
     */
    ConnectionLost = 0x100,
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Error;
    std::string payload;
};

/** Serialize a complete frame (header + payload). */
std::string encodeFrame(FrameType type, const std::string &payload);

/**
 * Incremental frame decoder.  feed() bytes as they arrive; next()
 * yields completed frames.  A malformed header (bad magic, bad
 * version, nonzero reserved bits, oversized length) or a payload CRC
 * mismatch latches error(): the connection is unrecoverable because
 * framing is lost.  Truncated input is not an error — next() simply
 * returns false until the rest arrives.
 */
class FrameAssembler
{
  public:
    /** Append @p n raw bytes from the stream. */
    void feed(const char *data, size_t n);

    /** Pop the next complete frame; false when more bytes are needed. */
    bool next(Frame &out);

    /** Set after a framing violation; message in errorDetail(). */
    bool error() const { return !err.empty(); }
    const std::string &errorDetail() const { return err; }

    /** Bytes buffered but not yet consumed (tests). */
    size_t buffered() const { return buf.size() - consumed; }

  private:
    std::string buf;
    size_t consumed = 0;
    std::string err;
};

// ---------------------------------------------------------------------
// Typed payloads.  Encode/decode pairs for every frame body; decoders
// return false on short or trailing bytes.
// ---------------------------------------------------------------------

/** HELLO: client introduces itself. */
struct HelloBody
{
    uint32_t wireVersion = kFeatureLevel;
    std::string clientName;
};

/** HELLO_OK: server accepts the session. */
struct HelloOkBody
{
    uint32_t wireVersion = kFeatureLevel;
    std::string serverName;
    uint64_t sessionId = 0;
};

/** QUERY: one SQL statement (+ optional trace-id TLV). */
struct QueryBody
{
    std::string sql;

    /** Client-generated trace id propagated into server spans. */
    bool hasTraceId = false;
    uint64_t traceId = 0;
};

/** ERROR: typed failure. */
struct ErrorBody
{
    ErrorCode code = ErrorCode::None;
    std::string message;
};

/** Kind byte of one RESULT cell. */
enum class CellKind : uint8_t
{
    Null = 0,
    Int = 1, ///< followed by an i64
    Str = 2, ///< followed by a u32 length and the bytes
};

/**
 * RESULT: either a row set (kind Rows) or a plain message (kind
 * Message — EXPLAIN text, LOAD summaries).  The rows themselves are
 * written by a ResultWriter and read back as DecodedRows; the body
 * carries everything else.  digest/checksum mirror engine::ResultSet
 * so clients can compare executions byte-for-byte with an in-process
 * run without re-deriving anything from decoded text.  execNs is the
 * server-side statement wall time.
 */
struct ResultBody
{
    enum class Kind : uint8_t { Rows = 0, Message = 1 };
    Kind kind = Kind::Rows;
    std::string message;
    std::vector<std::string> columns;
    std::vector<int64_t> oids;
    uint64_t digest = 0;
    uint64_t checksum = 0;
    uint64_t execNs = 0;

    /** TLVs: trace-id echo + per-operator summary. */
    bool hasTraceId = false;
    uint64_t traceId = 0;
    std::vector<std::pair<std::string, uint64_t>> opStats;
};

/** One decoded cell: a view into the RESULT payload's bytes. */
class CellView
{
  public:
    explicit CellView(const char *p) : p(p) {}

    CellKind kind() const { return static_cast<CellKind>(*p); }
    bool isNull() const { return kind() == CellKind::Null; }

    /** Value of an Int cell. */
    int64_t
    integer() const
    {
        int64_t v;
        std::memcpy(&v, p + 1, 8);
        return v;
    }

    /** Bytes of a Str cell. */
    std::string_view
    text() const
    {
        uint32_t len;
        std::memcpy(&len, p + 1, 4);
        return {p + 5, len};
    }

  private:
    const char *p; ///< the cell's kind byte
};

/** One decoded row: size() cells, each a CellView. */
class RowView
{
  public:
    RowView(const char *payload, const uint32_t *cells, size_t n)
        : payload(payload), cells(cells), n(n)
    {
    }

    size_t size() const { return n; }

    CellView
    operator[](size_t c) const
    {
        return CellView(payload + cells[c]);
    }

  private:
    const char *payload;
    const uint32_t *cells; ///< payload offsets of this row's cells
    size_t n;
};

/**
 * The rows of a decoded RESULT: the payload as received, plus one
 * flat index holding the payload offset of every cell and the first
 * cell of every row.  Decoding builds no object per cell or per row;
 * cells read in place as kind / integer / string_view.
 */
class DecodedRows
{
  public:
    size_t
    size() const
    {
        return rowStart.empty() ? 0 : rowStart.size() - 1;
    }
    bool empty() const { return size() == 0; }

    RowView
    operator[](size_t r) const
    {
        return RowView(payload.data(), cells.data() + rowStart[r],
                       rowStart[r + 1] - rowStart[r]);
    }

    /** Forward iterator over the rows. */
    class iterator
    {
      public:
        iterator(const DecodedRows *rows, size_t r) : rows(rows), r(r) {}
        RowView operator*() const { return (*rows)[r]; }
        iterator &operator++() { ++r; return *this; }
        bool operator==(const iterator &o) const { return r == o.r; }

      private:
        const DecodedRows *rows;
        size_t r;
    };
    iterator begin() const { return {this, 0}; }
    iterator end() const { return {this, size()}; }

  private:
    friend bool decodeResult(std::string payload, ResultBody &out,
                             DecodedRows &rows);

    std::string payload;
    std::vector<uint32_t> cells;    ///< payload offset of each cell
    std::vector<uint32_t> rowStart; ///< first cell of each row, + end
};

/** STATS_RESULT: ordered key -> value counters. */
struct StatsBody
{
    std::vector<std::pair<std::string, uint64_t>> entries;
};

std::string encodeHello(const HelloBody &b);
bool decodeHello(const std::string &payload, HelloBody &out);

std::string encodeHelloOk(const HelloOkBody &b);
bool decodeHelloOk(const std::string &payload, HelloOkBody &out);

/** QUERY codec; the trace id travels as a TLV (see the file comment). */
std::string encodeQuery(const QueryBody &b);
bool decodeQuery(const std::string &payload, QueryBody &out);

std::string encodeError(const ErrorBody &b);
bool decodeError(const std::string &payload, ErrorBody &out);

/**
 * The one writer of RESULT frames.  The constructor reserves the frame
 * header and writes the payload head (kind, message, columns, oids,
 * then the row count); each row is then row(ncells) followed by
 * exactly ncells cell calls; finish() appends the trailer (digest,
 * checksum, execNs, then the TLVs), fills in the header and returns
 * the whole frame, so the payload is never copied into a second
 * buffer.  The server feeds it result slots directly,
 * so no per-cell object is built on the way out.  @p head must
 * outlive the writer; its digest is not read (finish() takes it).
 */
class ResultWriter
{
  public:
    ResultWriter(const ResultBody &head, uint32_t nrows);

    void row(uint32_t ncells) { w.u32(ncells); }
    void null() { w.u8(static_cast<uint8_t>(CellKind::Null)); }

    void
    integer(int64_t v)
    {
        w.u8(static_cast<uint8_t>(CellKind::Int));
        w.i64(v);
    }

    void
    text(std::string_view s)
    {
        w.u8(static_cast<uint8_t>(CellKind::Str));
        w.str(s);
    }

    /** Make room for @p bytes more payload. */
    void reserve(size_t bytes) { w.reserve(w.size() + bytes); }

    /** Payload bytes written so far (the header not counted). */
    size_t size() const { return w.size() - kHeaderBytes; }

    /** The complete RESULT frame. */
    std::string finish(uint64_t digest);

  private:
    const ResultBody &head;
    Writer w;
};

/**
 * Decode a RESULT payload in one bounds-checked pass.  @p rows takes
 * over @p payload and indexes its cells.  Every count is checked
 * against the bytes left before it sizes anything, so no allocation
 * passes 8 bytes per payload byte (a u32 of index per cell of at
 * least one byte, a string per column of at least four), whatever
 * the payload says.  Returns false (and leaves @p rows empty) on
 * short, trailing or malformed bytes.
 */
bool decodeResult(std::string payload, ResultBody &out,
                  DecodedRows &rows);

std::string encodeStats(const StatsBody &b);
bool decodeStats(const std::string &payload, StatsBody &out);

/** Human-readable names for diagnostics. */
const char *frameTypeName(FrameType t);
const char *errorCodeName(ErrorCode c);

} // namespace dvp::net

#endif // DVP_NET_WIRE_HH

/**
 * @file
 * Tests for the network query-serving subsystem: the wire protocol
 * (src/net), the TCP server (src/server), and the client library
 * (src/client).
 *
 * The protocol tests exercise encode/decode round-trips and every
 * framing violation class (truncation, garbage, oversized lengths,
 * CRC corruption).  The server tests run a real server on an ephemeral
 * loopback port and prove the acceptance criteria: concurrent clients
 * observe digests byte-identical to in-process execution — including
 * while an adaptive repartition swaps the layout underneath the open
 * connections — backpressure rejects are typed, graceful drain
 * delivers every admitted response, and the dvp_server_* metrics reach
 * the Prometheus exporter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "adaptive/adaptive_engine.hh"
#include "client/client.hh"
#include "durability/manager.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "server/http.hh"
#include "server/server.hh"
#include "sql/run.hh"
#include "util/codec.hh"
#include "util/fault.hh"

namespace
{

/** Largest single heap allocation while tracking (decoder tests). */
thread_local bool g_track_alloc = false;
thread_local size_t g_max_alloc = 0;

void *
trackedAlloc(size_t n) noexcept
{
    if (g_track_alloc && n > g_max_alloc)
        g_max_alloc = n;
    return std::malloc(n == 0 ? 1 : n);
}

} // namespace

// Every non-aligned form is replaced, so each allocation and its
// release go through malloc/free whichever form a library picks (the
// sanitizers would flag a replaced new paired with their own delete).
[[gnu::noinline]] void *
operator new(size_t n)
{
    if (void *p = trackedAlloc(n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    return trackedAlloc(n);
}

[[gnu::noinline]] void *
operator new[](size_t n, const std::nothrow_t &) noexcept
{
    return trackedAlloc(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace dvp
{
namespace
{

using adaptive::AdaptiveEngine;
using adaptive::Params;

// ---------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------

TEST(Wire, CrcMatchesKnownVector)
{
    // IEEE CRC-32 of "123456789" is the classic check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

/** Bytewise CRC-32 (reflected 0xEDB88320): the reference crc32 meets. */
uint32_t
bytewiseCrc32(const unsigned char *p, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(Wire, CrcMatchesBytewiseReference)
{
    // Every length 0..1024 at every alignment 0..7 covers the sliced
    // body, the bytewise tail and unaligned loads; then one 1 MiB run.
    std::vector<unsigned char> buf((1u << 20) + 8);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto &b : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<unsigned char>(x);
    }
    for (size_t off = 0; off < 8; ++off)
        for (size_t len = 0; len <= 1024; ++len)
            ASSERT_EQ(crc32(buf.data() + off, len),
                      bytewiseCrc32(buf.data() + off, len))
                << "offset " << off << ", length " << len;
    EXPECT_EQ(crc32(buf.data(), 1u << 20),
              bytewiseCrc32(buf.data(), 1u << 20));
}

/** The RESULT payload of a body without rows. */
std::string
payloadOf(const net::ResultBody &b)
{
    return net::ResultWriter(b, 0).finish(b.digest).substr(
        net::kHeaderBytes);
}

TEST(Wire, TypedBodiesRoundTrip)
{
    net::HelloBody hello;
    hello.clientName = "unit";
    net::HelloBody hello2;
    ASSERT_TRUE(decodeHello(encodeHello(hello), hello2));
    EXPECT_EQ(hello2.wireVersion, net::kFeatureLevel);
    EXPECT_EQ(hello2.clientName, "unit");

    net::HelloOkBody ok;
    ok.serverName = "dvpd-test";
    ok.sessionId = 42;
    net::HelloOkBody ok2;
    ASSERT_TRUE(decodeHelloOk(encodeHelloOk(ok), ok2));
    EXPECT_EQ(ok2.serverName, "dvpd-test");
    EXPECT_EQ(ok2.sessionId, 42u);

    net::QueryBody q;
    q.sql = "SELECT * FROM t WHERE num BETWEEN 1 AND 2";
    net::QueryBody q2;
    ASSERT_TRUE(decodeQuery(encodeQuery(q), q2));
    EXPECT_EQ(q2.sql, q.sql);

    net::ErrorBody e;
    e.code = net::ErrorCode::ServerBusy;
    e.message = "try later";
    net::ErrorBody e2;
    ASSERT_TRUE(decodeError(encodeError(e), e2));
    EXPECT_EQ(e2.code, net::ErrorCode::ServerBusy);
    EXPECT_EQ(e2.message, "try later");

    net::ResultBody r;
    r.columns = {"oid", "num", "str1"};
    r.oids = {7, 9};
    r.checksum = 0x1234;
    r.execNs = 98765;
    net::ResultWriter w(r, 2);
    w.row(2);
    w.integer(123);
    w.text("hello");
    w.row(2);
    w.null();
    w.integer(-5);
    std::string frame = w.finish(0xDEADBEEFCAFEF00DULL);
    net::ResultBody r2;
    net::DecodedRows rows;
    ASSERT_TRUE(
        decodeResult(frame.substr(net::kHeaderBytes), r2, rows));
    EXPECT_EQ(r2.kind, net::ResultBody::Kind::Rows);
    EXPECT_EQ(r2.columns, r.columns);
    EXPECT_EQ(r2.oids, r.oids);
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].size(), 2u);
    EXPECT_EQ(rows[0][0].kind(), net::CellKind::Int);
    EXPECT_EQ(rows[0][0].integer(), 123);
    EXPECT_EQ(rows[0][1].kind(), net::CellKind::Str);
    EXPECT_EQ(rows[0][1].text(), "hello");
    EXPECT_TRUE(rows[1][0].isNull());
    EXPECT_EQ(rows[1][1].integer(), -5);
    EXPECT_EQ(r2.digest, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(r2.checksum, r.checksum);
    EXPECT_EQ(r2.execNs, r.execNs);

    net::ResultBody msg;
    msg.kind = net::ResultBody::Kind::Message;
    msg.message = "ingested 10 documents";
    net::ResultBody msg2;
    ASSERT_TRUE(decodeResult(payloadOf(msg), msg2, rows));
    EXPECT_EQ(msg2.kind, net::ResultBody::Kind::Message);
    EXPECT_EQ(msg2.message, msg.message);
    EXPECT_TRUE(rows.empty());

    net::StatsBody st;
    st.entries = {{"requests_total", 12}, {"docs", 5000}};
    net::StatsBody st2;
    ASSERT_TRUE(decodeStats(encodeStats(st), st2));
    EXPECT_EQ(st2.entries, st.entries);
}

TEST(Wire, AssemblerReassemblesByteDribble)
{
    // Three frames fed one byte at a time must come out intact and in
    // order.
    net::QueryBody q;
    q.sql = "SELECT str1, num FROM t";
    std::string stream =
        net::encodeFrame(net::FrameType::Hello,
                         encodeHello(net::HelloBody{})) +
        net::encodeFrame(net::FrameType::Query, encodeQuery(q)) +
        net::encodeFrame(net::FrameType::Close, "");

    net::FrameAssembler as;
    std::vector<net::Frame> frames;
    net::Frame f;
    for (char c : stream) {
        as.feed(&c, 1);
        while (as.next(f))
            frames.push_back(f);
        EXPECT_FALSE(as.error());
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, net::FrameType::Hello);
    EXPECT_EQ(frames[1].type, net::FrameType::Query);
    net::QueryBody q2;
    ASSERT_TRUE(decodeQuery(frames[1].payload, q2));
    EXPECT_EQ(q2.sql, q.sql);
    EXPECT_EQ(frames[2].type, net::FrameType::Close);
    EXPECT_EQ(as.buffered(), 0u);
}

TEST(Wire, TruncatedFrameIsPendingNotError)
{
    std::string frame = net::encodeFrame(
        net::FrameType::Query,
        encodeQuery(net::QueryBody{"SELECT * FROM t"}));
    net::FrameAssembler as;
    as.feed(frame.data(), frame.size() - 4);
    net::Frame f;
    EXPECT_FALSE(as.next(f));
    EXPECT_FALSE(as.error()) << as.errorDetail();
    as.feed(frame.data() + frame.size() - 4, 4);
    EXPECT_TRUE(as.next(f));
    EXPECT_EQ(f.type, net::FrameType::Query);
}

TEST(Wire, AssemblerGrowsOnlyWithTheBytesReceived)
{
    // A lone header claiming the largest payload must not make the
    // assembler (one per server session) allocate for it up front.
    std::string header = net::encodeFrame(net::FrameType::Query, "")
                             .substr(0, net::kHeaderBytes);
    const uint32_t claimed = net::kMaxPayload;
    std::memcpy(header.data() + 4, &claimed, 4);
    net::FrameAssembler as;
    net::Frame f;
    g_max_alloc = 0;
    g_track_alloc = true;
    as.feed(header.data(), header.size());
    bool popped = as.next(f);
    as.feed("x", 1);
    popped = popped || as.next(f);
    g_track_alloc = false;
    EXPECT_FALSE(popped);
    EXPECT_FALSE(as.error()) << as.errorDetail();
    EXPECT_LE(g_max_alloc, 1024u);
}

TEST(Wire, GarbageMagicLatchesError)
{
    net::FrameAssembler as;
    std::string junk = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
    as.feed(junk.data(), junk.size());
    net::Frame f;
    EXPECT_FALSE(as.next(f));
    EXPECT_TRUE(as.error());
    EXPECT_NE(as.errorDetail().find("magic"), std::string::npos);
}

TEST(Wire, BadVersionAndReservedAndOversizedAreErrors)
{
    std::string good = net::encodeFrame(net::FrameType::Close, "");

    {
        std::string bad = good;
        bad[2] = char(net::kWireVersion + 1); // version byte
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
    {
        std::string bad = good;
        bad[12] = 1; // reserved must be zero
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
    {
        std::string bad = good;
        uint32_t huge = net::kMaxPayload + 1;
        std::memcpy(&bad[4], &huge, 4); // length field
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
    {
        std::string bad = good;
        bad[3] = 99; // frame type out of range
        net::FrameAssembler as;
        as.feed(bad.data(), bad.size());
        net::Frame f;
        EXPECT_FALSE(as.next(f));
        EXPECT_TRUE(as.error());
    }
}

TEST(Wire, CrcMismatchIsAnError)
{
    std::string frame = net::encodeFrame(
        net::FrameType::Query,
        encodeQuery(net::QueryBody{"SELECT * FROM t"}));
    frame[frame.size() - 1] ^= 0x40; // flip a payload bit
    net::FrameAssembler as;
    as.feed(frame.data(), frame.size());
    net::Frame f;
    EXPECT_FALSE(as.next(f));
    EXPECT_TRUE(as.error());
    EXPECT_NE(as.errorDetail().find("CRC"), std::string::npos);
}

TEST(Wire, ErrorCodesRoundTripInFramesWithDistinctNames)
{
    const net::ErrorCode all[] = {
        net::ErrorCode::None,         net::ErrorCode::Parse,
        net::ErrorCode::Exec,         net::ErrorCode::ServerBusy,
        net::ErrorCode::ShuttingDown, net::ErrorCode::Protocol,
        net::ErrorCode::Unsupported,  net::ErrorCode::ReadOnly,
        net::ErrorCode::ResultTooLarge};
    std::set<std::string> names;
    for (net::ErrorCode code : all) {
        std::string frame = net::encodeFrame(
            net::FrameType::Error, net::encodeError({code, "why"}));
        net::FrameAssembler as;
        as.feed(frame.data(), frame.size());
        net::Frame f;
        ASSERT_TRUE(as.next(f));
        ASSERT_EQ(f.type, net::FrameType::Error);
        net::ErrorBody e;
        ASSERT_TRUE(decodeError(f.payload, e));
        EXPECT_EQ(e.code, code);
        EXPECT_EQ(e.message, "why");
        EXPECT_STRNE(net::errorCodeName(code), "?");
        names.insert(net::errorCodeName(code));
    }
    EXPECT_EQ(names.size(), std::size(all));
    EXPECT_STREQ(net::errorCodeName(net::ErrorCode::ResultTooLarge),
                 "RESULT_TOO_LARGE");
}

TEST(Wire, DecodersRejectShortAndTrailingBytes)
{
    std::string ok = encodeQuery(net::QueryBody{"SELECT 1"});
    net::QueryBody q;
    EXPECT_FALSE(decodeQuery(ok.substr(0, ok.size() - 1), q));
    EXPECT_FALSE(decodeQuery(ok + "x", q));

    // A RESULT whose row count implies more bytes than the payload
    // holds must fail cleanly instead of over-allocating.
    net::ResultBody r;
    r.oids = {1};
    net::ResultWriter w(r, 1);
    w.row(1);
    w.integer(7);
    std::string enc = w.finish(0).substr(net::kHeaderBytes);
    net::ResultBody out;
    net::DecodedRows rows;
    EXPECT_FALSE(decodeResult(enc.substr(0, enc.size() / 2), out, rows));
    EXPECT_TRUE(rows.empty());
}

// ---------------------------------------------------------------------
// RESULT encoding: rows written straight from slots.
// ---------------------------------------------------------------------

/** One result cell as the original cell path held it. */
struct OracleCell
{
    net::CellKind kind = net::CellKind::Null;
    int64_t i = 0;
    std::string s;

    bool operator==(const OracleCell &) const = default;
};

using OracleRows = std::vector<std::vector<OracleCell>>;

/**
 * The RESULT encoding as it was when the server first converted every
 * slot to a cell object and encoded the cells: the oracle the
 * slot-direct writer must match byte for byte.
 */
std::string
cellPathEncodeResult(const net::ResultBody &b, const OracleRows &rows)
{
    Writer w;
    w.u8(static_cast<uint8_t>(b.kind));
    w.str(b.message);
    w.u32(static_cast<uint32_t>(b.columns.size()));
    for (const auto &c : b.columns)
        w.str(c);
    w.u32(static_cast<uint32_t>(b.oids.size()));
    for (int64_t oid : b.oids)
        w.i64(oid);
    w.u32(static_cast<uint32_t>(rows.size()));
    for (const auto &row : rows) {
        w.u32(static_cast<uint32_t>(row.size()));
        for (const OracleCell &c : row) {
            w.u8(static_cast<uint8_t>(c.kind));
            if (c.kind == net::CellKind::Int)
                w.i64(c.i);
            else if (c.kind == net::CellKind::Str)
                w.str(c.s);
        }
    }
    w.u64(b.digest);
    w.u64(b.checksum);
    w.u64(b.execNs);
    if (b.hasTraceId) {
        Writer v;
        v.u64(b.traceId);
        w.u8(net::kExtTraceId);
        w.str(v.bytes());
    }
    if (!b.opStats.empty()) {
        Writer v;
        v.u32(static_cast<uint32_t>(b.opStats.size()));
        for (const auto &[key, value] : b.opStats) {
            v.str(key);
            v.u64(value);
        }
        w.u8(net::kExtOpStats);
        w.str(v.bytes());
    }
    return w.bytes();
}

/** The cell-path conversion of one slot (the oracle's input side). */
OracleCell
slotCell(const engine::DataSet &data, storage::Slot s)
{
    if (storage::isNull(s))
        return {net::CellKind::Null, 0, ""};
    if (storage::isStringSlot(s))
        return {net::CellKind::Str, 0,
                data.dict.text(storage::decodeString(s))};
    return {net::CellKind::Int, s, ""};
}

TEST(ResultEncoding, SlotRowsMatchTheCellPathByteForByte)
{
    engine::DataSet data;
    storage::Slot hello = storage::encodeString(data.dict.intern("hello"));
    storage::Slot empty = storage::encodeString(data.dict.intern(""));
    storage::Slot utf8 =
        storage::encodeString(data.dict.intern("sparse_val_\xc3\xa9"));

    engine::ResultSet many;
    many.rows.append({123, hello, storage::kNullSlot});
    many.rows.append({storage::kNullSlot, -5, empty});
    many.rows.append({utf8, 0, std::numeric_limits<int64_t>::min() + 1});
    many.rows.append({hello, hello, -1});
    many.oids = {7, 9, 11, 13};
    many.checksum = 0x1234;
    engine::ResultSet none; // zero rows

    for (const engine::ResultSet *rs : {&many, &none}) {
        net::ResultBody meta;
        meta.columns = {"num", "str1", "sparse_300"};
        meta.oids = rs->oids;
        meta.checksum = rs->checksum;
        meta.execNs = 98765;
        meta.hasTraceId = true;
        meta.traceId = 0xABCDEF;
        meta.opStats = {{"rows_out", rs->rowCount()}, {"plan_ns", 7}};

        std::string direct;
        ASSERT_TRUE(server::encodeRowResult(
            meta, *rs, data, net::kMaxPayload, direct));

        OracleRows cells;
        for (engine::ResultRows::Row row : rs->rows) {
            std::vector<OracleCell> out;
            for (storage::Slot s : row)
                out.push_back(slotCell(data, s));
            cells.push_back(std::move(out));
        }
        net::ResultBody head = meta;
        head.digest = rs->digest();
        std::string oracle = cellPathEncodeResult(head, cells);
        // One frame: the header sealed in place over the payload.
        EXPECT_EQ(direct, net::encodeFrame(net::FrameType::Result,
                                           oracle))
            << "rows " << rs->rowCount();

        net::ResultBody back;
        net::DecodedRows rows;
        ASSERT_TRUE(decodeResult(oracle, back, rows));
        EXPECT_EQ(back.columns, meta.columns);
        EXPECT_EQ(back.oids, meta.oids);
        EXPECT_EQ(back.digest, rs->digest());
        EXPECT_EQ(back.checksum, meta.checksum);
        ASSERT_EQ(rows.size(), cells.size());
        for (size_t r = 0; r < rows.size(); ++r) {
            ASSERT_EQ(rows[r].size(), cells[r].size());
            for (size_t c = 0; c < rows[r].size(); ++c) {
                net::CellView got = rows[r][c];
                const OracleCell &want = cells[r][c];
                ASSERT_EQ(got.kind(), want.kind);
                if (want.kind == net::CellKind::Int) {
                    EXPECT_EQ(got.integer(), want.i);
                } else if (want.kind == net::CellKind::Str) {
                    EXPECT_EQ(got.text(), want.s);
                }
            }
        }
        EXPECT_TRUE(back.hasTraceId);
    }

    // A Message result goes through the same writer with zero rows.
    net::ResultBody msg;
    msg.kind = net::ResultBody::Kind::Message;
    msg.message = "ingested 10 documents";
    msg.execNs = 5;
    msg.hasTraceId = true;
    msg.traceId = 3;
    EXPECT_EQ(payloadOf(msg), cellPathEncodeResult(msg, {}));
    net::ResultBody back;
    net::DecodedRows rows;
    ASSERT_TRUE(decodeResult(payloadOf(msg), back, rows));
    EXPECT_EQ(back.kind, net::ResultBody::Kind::Message);
    EXPECT_EQ(back.message, msg.message);
}

/** Every decoded cell, read through its view. */
OracleRows
decodedCells(const net::DecodedRows &rows)
{
    OracleRows out;
    for (net::RowView row : rows) {
        std::vector<OracleCell> cells;
        for (size_t c = 0; c < row.size(); ++c) {
            net::CellView v = row[c];
            OracleCell cell{v.kind(), 0, ""};
            if (cell.kind == net::CellKind::Int)
                cell.i = v.integer();
            else if (cell.kind == net::CellKind::Str)
                cell.s = std::string(v.text());
            cells.push_back(std::move(cell));
        }
        out.push_back(std::move(cells));
    }
    return out;
}

/**
 * Decode @p payload with allocation tracking on.  Returns whether it
 * decoded; @p cells receives the cells when it did, and the largest
 * single allocation is checked against the decoder's bound: one u32
 * of index per cell (a cell takes at least one byte) and one string
 * per column (a column takes at least four), so at most 8 bytes per
 * payload byte.
 */
bool
decodeTracked(const std::string &payload, OracleRows &cells)
{
    net::ResultBody body;
    net::DecodedRows rows;
    g_max_alloc = 0;
    g_track_alloc = true;
    std::string copy = payload;
    bool ok = net::decodeResult(std::move(copy), body, rows);
    g_track_alloc = false;
    EXPECT_LE(g_max_alloc, 8 * payload.size() + 64)
        << "payload of " << payload.size() << " bytes";
    if (ok)
        cells = decodedCells(rows); // reads every cell in place
    return ok;
}

/** RESULT frames shaped like Q1, Q5, Q6, Q10 and a Message. */
std::vector<std::string>
damageShapes()
{
    engine::DataSet data;
    auto str = [&data](const std::string &t) {
        return storage::encodeString(data.dict.intern(t));
    };
    std::mt19937_64 rng(2);
    auto wide = [&](size_t nrows) {
        // SELECT * rows: 1018 cells, about 2% of them set.
        engine::ResultSet rs;
        for (size_t r = 0; r < nrows; ++r) {
            storage::Slot *row = rs.rows.appendRow(1018);
            for (size_t c = 0; c < 1018; c += 1 + rng() % 90) {
                auto num = static_cast<storage::Slot>(rng() % 1000000);
                row[c] = rng() % 2 ? str("sparse_" + std::to_string(c))
                                   : num - 500000;
            }
            rs.oids.push_back(static_cast<int64_t>(r * 37));
        }
        return rs;
    };
    engine::ResultSet q1, q10;
    for (int r = 0; r < 12; ++r) {
        q1.rows.append({str("str1_" + std::to_string(r)), r * 1000 - 5});
        q1.oids.push_back(r);
    }
    for (int g = 0; g < 20; ++g)
        q10.rows.append(
            {g == 0 ? storage::kNullSlot : g * 1000, 7 + g});
    std::vector<std::string> frames;
    for (const engine::ResultSet &rs : {q1, wide(1), wide(3), q10}) {
        net::ResultBody meta;
        meta.columns = {"c0", "c1"};
        meta.oids = rs.oids;
        meta.checksum = 0xC0FFEE;
        meta.execNs = 1234;
        meta.hasTraceId = true;
        meta.traceId = 0xABCDEF;
        meta.opStats = {{"rows_out", rs.rowCount()}, {"plan_ns", 7}};
        std::string frame;
        EXPECT_TRUE(server::encodeRowResult(meta, rs, data,
                                            net::kMaxPayload, frame));
        frames.push_back(frame);
    }
    net::ResultBody msg;
    msg.kind = net::ResultBody::Kind::Message;
    msg.message = "EXPLAIN text";
    msg.hasTraceId = true;
    msg.traceId = 9;
    frames.push_back(net::ResultWriter(msg, 0).finish(0));
    return frames;
}

TEST(ResultDecoding, TruncatedPrefixesDecodeWholeOrFail)
{
    // A strict prefix can still be a valid payload (one cut just
    // before its TLV block), but then it carries exactly the original
    // cells.
    for (const std::string &frame : damageShapes()) {
        std::string payload = frame.substr(net::kHeaderBytes);
        OracleRows want;
        ASSERT_TRUE(decodeTracked(payload, want));
        for (size_t len = 0; len < payload.size(); ++len) {
            OracleRows got;
            if (decodeTracked(payload.substr(0, len), got)) {
                ASSERT_EQ(got, want) << "prefix " << len;
            }
        }
    }
}

TEST(ResultDecoding, FlippedBytesDecodeWholeOrFail)
{
    for (const std::string &frame : damageShapes()) {
        std::string payload = frame.substr(net::kHeaderBytes);
        OracleRows want;
        ASSERT_TRUE(decodeTracked(payload, want));
        for (size_t at = 0; at < frame.size(); ++at) {
            for (uint8_t mask : {0x01, 0x80, 0xFF}) {
                SCOPED_TRACE("byte " + std::to_string(at) + " ^ " +
                             std::to_string(mask));
                std::string bad = frame;
                bad[at] = static_cast<char>(bad[at] ^ mask);
                // The decoder on its own stays inside the payload
                // and its allocation bound whatever the damage.
                OracleRows cells;
                if (at >= net::kHeaderBytes)
                    decodeTracked(bad.substr(net::kHeaderBytes), cells);
                // What a client sees: the frame is refused (CRC,
                // header checks), arrives as another frame type,
                // or decodes to exactly the original cells.
                net::FrameAssembler in;
                in.feed(bad.data(), bad.size());
                net::Frame f;
                if (!in.next(f) || f.type != net::FrameType::Result)
                    continue;
                OracleRows got;
                if (decodeTracked(f.payload, got)) {
                    ASSERT_EQ(got, want);
                }
            }
        }
    }
}

TEST(ResultEncoding, RowWriterStopsPastTheByteCap)
{
    engine::DataSet data;
    storage::Slot s = storage::encodeString(data.dict.intern("0123456789"));
    engine::ResultSet rs;
    for (int i = 0; i < 100; ++i)
        rs.rows.append({i, s});
    net::ResultBody meta;
    meta.columns = {"num", "str1"};

    std::string full;
    ASSERT_TRUE(server::encodeRowResult(meta, rs, data, net::kMaxPayload,
                                        full));
    size_t payload = full.size() - net::kHeaderBytes;
    std::string out;
    // The cap is inclusive: exactly the payload size fits, one byte
    // less does not, and a tiny cap stops within the first rows.
    EXPECT_TRUE(server::encodeRowResult(meta, rs, data, payload, out));
    EXPECT_EQ(out, full);
    EXPECT_FALSE(server::encodeRowResult(meta, rs, data, payload - 1, out));
    EXPECT_FALSE(server::encodeRowResult(meta, rs, data, 64, out));
    engine::ResultSet none;
    EXPECT_TRUE(server::encodeRowResult(meta, none, data, 64, out));
}

// ---------------------------------------------------------------------
// Client-side failures are typed.
// ---------------------------------------------------------------------

/**
 * A one-connection peer: it answers HELLO, answers the first QUERY
 * with the raw bytes @p reply, and closes the connection.
 */
class ScriptedPeer
{
  public:
    explicit ScriptedPeer(std::string reply) : reply(std::move(reply))
    {
        std::string err;
        fd = net::listenTcp("127.0.0.1", 0, &port, &err);
        EXPECT_GE(fd, 0) << err;
        thread = std::thread([this] { serve(); });
    }

    ~ScriptedPeer()
    {
        thread.join();
        net::closeFd(fd);
    }

    uint16_t port = 0;

  private:
    void
    serve()
    {
        int c = ::accept(fd, nullptr, nullptr);
        if (c < 0)
            return;
        net::FrameAssembler in;
        net::Frame f;
        auto next = [&] {
            char buf[4096];
            while (!in.next(f)) {
                long got = net::recvSome(c, buf, sizeof(buf));
                if (got <= 0)
                    return false;
                in.feed(buf, static_cast<size_t>(got));
            }
            return true;
        };
        if (next() && f.type == net::FrameType::Hello) {
            net::HelloOkBody ok;
            ok.serverName = "scripted";
            ok.sessionId = 1;
            std::string hello = net::encodeFrame(net::FrameType::HelloOk,
                                                 encodeHelloOk(ok));
            net::sendAll(c, hello.data(), hello.size());
            if (next() && (f.type == net::FrameType::Query ||
                           f.type == net::FrameType::Stats))
                net::sendAll(c, reply.data(), reply.size());
        }
        net::closeFd(c);
    }

    std::string reply;
    int fd = -1;
    std::thread thread;
};

/** The answer a client gives to one query against @p reply. */
client::Result
answerTo(const std::string &reply)
{
    ScriptedPeer peer(reply);
    client::Client c;
    std::string err = c.connect("127.0.0.1", peer.port, "unit");
    EXPECT_EQ(err, "");
    client::Result r = c.query("SELECT str1 FROM t");
    c.close();
    return r;
}

/** The stats() a client gets back from a peer answering @p reply. */
client::Stats
statsAnswerTo(const std::string &reply)
{
    ScriptedPeer peer(reply);
    client::Client c;
    std::string err = c.connect("127.0.0.1", peer.port, "unit");
    EXPECT_EQ(err, "");
    client::Stats s = c.stats();
    c.close();
    return s;
}

/** A valid one-row RESULT frame. */
std::string
oneRowFrame()
{
    net::ResultBody head;
    head.columns = {"str1"};
    head.oids = {1};
    net::ResultWriter w(head, 1);
    w.row(1);
    w.text("str1_1");
    return w.finish(0x1234);
}

TEST(ClientErrors, NotConnectedIsConnectionLost)
{
    client::Client c;
    client::Result r = c.query("SELECT str1 FROM t");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, net::ErrorCode::ConnectionLost);
    EXPECT_STREQ(net::errorCodeName(r.errorCode), "CONNECTION_LOST");
}

TEST(ClientErrors, FlippedResultByteIsProtocol)
{
    std::string good = oneRowFrame();
    client::Result ok = answerTo(good);
    ASSERT_TRUE(ok.ok) << ok.error;
    ASSERT_EQ(ok.rows.size(), 1u);
    EXPECT_EQ(ok.rows[0][0].text(), "str1_1");

    // A flipped payload byte under the original CRC: the frame is
    // refused before it is decoded.
    std::string stale = good;
    stale.back() = static_cast<char>(stale.back() ^ 0x40);
    client::Result r1 = answerTo(stale);
    EXPECT_FALSE(r1.ok);
    EXPECT_EQ(r1.errorCode, net::ErrorCode::Protocol) << r1.error;

    // The same kind of flip under a fresh CRC: the cell's kind byte
    // becomes 3, which no RESULT carries.
    std::string payload = good.substr(net::kHeaderBytes);
    size_t kind_at = payload.find("str1_1") - 5; // kind, u32 length
    ASSERT_EQ(payload[kind_at], static_cast<char>(net::CellKind::Str));
    payload[kind_at] = static_cast<char>(payload[kind_at] ^ 0x01);
    client::Result r2 =
        answerTo(net::encodeFrame(net::FrameType::Result, payload));
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.errorCode, net::ErrorCode::Protocol) << r2.error;
    EXPECT_NE(r2.error.find("malformed RESULT"), std::string::npos);
}

TEST(ClientErrors, UnexpectedFrameIsProtocol)
{
    client::Result r = answerTo(
        net::encodeFrame(net::FrameType::StatsResult,
                         net::encodeStats(net::StatsBody{})));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, net::ErrorCode::Protocol) << r.error;
    EXPECT_NE(r.error.find("STATS_RESULT"), std::string::npos);
}

TEST(ClientErrors, ServerClosingMidResponseIsConnectionLost)
{
    std::string good = oneRowFrame();
    for (size_t cut : {size_t{0}, size_t{7}, good.size() / 2,
                       good.size() - 1}) {
        client::Result r = answerTo(good.substr(0, cut));
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorCode, net::ErrorCode::ConnectionLost)
            << "cut at " << cut << ": " << r.error;
    }
}

TEST(ClientErrors, StatsNotConnectedIsConnectionLost)
{
    client::Client c;
    client::Stats s = c.stats();
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(s.code, net::ErrorCode::ConnectionLost);
    EXPECT_STREQ(net::errorCodeName(s.code), "CONNECTION_LOST");
}

TEST(ClientErrors, StatsAnswerAndServerErrorCode)
{
    net::StatsBody body;
    body.entries = {{"docs", 42}};
    client::Stats ok = statsAnswerTo(net::encodeFrame(
        net::FrameType::StatsResult, net::encodeStats(body)));
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.code, net::ErrorCode::None);
    EXPECT_EQ(ok.get("docs"), 42u);

    // An ERROR frame carries the server's own code.
    net::ErrorBody e;
    e.code = net::ErrorCode::ShuttingDown;
    e.message = "draining";
    client::Stats s = statsAnswerTo(
        net::encodeFrame(net::FrameType::Error, encodeError(e)));
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(s.code, net::ErrorCode::ShuttingDown);
    EXPECT_EQ(s.error, "draining");
}

TEST(ClientErrors, StatsMalformedOrUnexpectedFrameIsProtocol)
{
    // A RESULT where STATS_RESULT belongs.
    client::Stats wrong = statsAnswerTo(oneRowFrame());
    EXPECT_FALSE(wrong.ok);
    EXPECT_EQ(wrong.code, net::ErrorCode::Protocol) << wrong.error;
    EXPECT_NE(wrong.error.find("RESULT"), std::string::npos);

    // A STATS_RESULT whose body does not decode.
    client::Stats bad = statsAnswerTo(
        net::encodeFrame(net::FrameType::StatsResult, "\x05"));
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.code, net::ErrorCode::Protocol) << bad.error;
    EXPECT_NE(bad.error.find("malformed STATS_RESULT"),
              std::string::npos);

    // A malformed ERROR frame.
    client::Stats err = statsAnswerTo(
        net::encodeFrame(net::FrameType::Error, ""));
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.code, net::ErrorCode::Protocol) << err.error;

    // A frame whose CRC does not check.
    std::string frame = net::encodeFrame(net::FrameType::StatsResult,
                                         net::encodeStats(net::StatsBody{}));
    frame.back() = static_cast<char>(frame.back() ^ 0x40);
    client::Stats crc = statsAnswerTo(frame);
    EXPECT_FALSE(crc.ok);
    EXPECT_EQ(crc.code, net::ErrorCode::Protocol) << crc.error;
}

TEST(ClientErrors, StatsServerClosingMidResponseIsConnectionLost)
{
    std::string good = net::encodeFrame(
        net::FrameType::StatsResult, net::encodeStats(net::StatsBody{}));
    for (size_t cut : {size_t{0}, size_t{7}, good.size() - 1}) {
        client::Stats s = statsAnswerTo(good.substr(0, cut));
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.code, net::ErrorCode::ConnectionLost)
            << "cut at " << cut << ": " << s.error;
    }
}

// ---------------------------------------------------------------------
// Server fixture: one NoBench data set shared by every server test.
// ---------------------------------------------------------------------

/** Q1-Q11 as SQL (the paper's mix; Q12/LOAD is tested separately). */
const std::vector<std::string> &
queryMix()
{
    static const std::vector<std::string> mix = {
        "SELECT str1, num FROM t",
        "SELECT nested_obj.str, sparse_300 FROM t",
        "SELECT sparse_110, sparse_119 FROM t",
        "SELECT sparse_110, sparse_220 FROM t",
        "SELECT * FROM t WHERE str1 = 'str1_17'",
        "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999",
        "SELECT * FROM t WHERE dyn1 BETWEEN 5000 AND 6999",
        "SELECT sparse_330, num FROM t WHERE 'arr_7' = ANY nested_arr",
        "SELECT * FROM t WHERE sparse_300 = 'sparse_val_3'",
        "SELECT COUNT(*) FROM t WHERE num BETWEEN 0 AND 499999 "
        "GROUP BY thousandth",
        "SELECT * FROM t AS l INNER JOIN t AS r "
        "ON l.nested_obj.str = r.str1 WHERE l.num BETWEEN 0 AND 999",
    };
    return mix;
}

class ServerWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        uint64_t docs = 1200;
        if (const char *env = std::getenv("DVP_TEST_DOCS"))
            docs = std::strtoull(env, nullptr, 10);
        cfg.numDocs = docs;
        cfg.seed = 99;
        data = new engine::DataSet(nobench::generateDataSet(cfg));
        qs = new nobench::QuerySet(*data, cfg);
    }

    static void
    TearDownTestSuite()
    {
        delete qs;
        delete data;
        qs = nullptr;
        data = nullptr;
    }

    /** A fresh engine over the shared (copied) data set. */
    struct World
    {
        engine::DataSet data;
        std::unique_ptr<AdaptiveEngine> engine;

        explicit World(Params prm = defaultParams())
            : data(*ServerWorld::data)
        {
            Rng rng(1);
            auto initial = nobench::representatives(
                *ServerWorld::qs, nobench::Mix::uniform(), rng);
            engine =
                std::make_unique<AdaptiveEngine>(data, initial, prm);
        }
    };

    static Params
    defaultParams()
    {
        Params prm;
        prm.background = true;
        prm.adapt = false; // repartition tests opt in explicitly
        return prm;
    }

    static nobench::Config cfg;
    static engine::DataSet *data;
    static nobench::QuerySet *qs;
};

nobench::Config ServerWorld::cfg;
engine::DataSet *ServerWorld::data = nullptr;
nobench::QuerySet *ServerWorld::qs = nullptr;

/**
 * Current value of a registry counter.  The registry is process-wide,
 * so server tests assert before/after deltas, never absolute values.
 */
uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

TEST_F(ServerWorld, HandshakeQueryAndStats)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");
    uint64_t conns0 = counterValue("dvp_server_connections_total");
    uint64_t reqs0 = counterValue("dvp_server_requests_total");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "unit"), "");
    EXPECT_EQ(c.serverName(), "dvpd");
    EXPECT_GT(c.sessionId(), 0u);

    client::Result r =
        c.query("SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.isMessage);
    EXPECT_EQ(r.rows.size(), r.oids.size());

    // The digest in the frame matches an in-process run.
    sql::RunResult local = sql::runStatement(
        *w.engine, "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(r.digest, local.rows.digest());
    EXPECT_EQ(r.checksum, local.rows.checksum);
    EXPECT_EQ(r.rows.size(), local.rows.rowCount());

    // EXPLAIN comes back as a message.
    client::Result ex =
        c.query("EXPLAIN SELECT str1, num FROM t");
    ASSERT_TRUE(ex.ok) << ex.error;
    EXPECT_TRUE(ex.isMessage);
    EXPECT_NE(ex.message.find("selectivity"), std::string::npos);

    // STATS reflects the session.
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.get("server_connections_total"), conns0 + 1);
    EXPECT_EQ(st.get("server_requests_total"), reqs0 + 2);
    EXPECT_EQ(st.get("docs"), w.data.docs.size());

    // Parse errors are typed, and the connection survives them.
    client::Result bad = c.query("SELEKT nope");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, net::ErrorCode::Parse);
    client::Result again = c.query("SELECT str1, num FROM t");
    EXPECT_TRUE(again.ok) << again.error;

    c.close();
    srv.stop();
    EXPECT_EQ(counterValue("dvp_server_connections_total"), conns0 + 1);
    EXPECT_EQ(counterValue("dvp_server_requests_total"), reqs0 + 4);
}

/**
 * Send @p frame as the first bytes of a raw connection to @p port and
 * expect a PROTOCOL_ERROR frame back, then the server hanging up.
 * @p message receives the error text.
 */
void
expectProtocolErrorAndHangUp(uint16_t port, const std::string &frame,
                             std::string *message)
{
    std::string err;
    int fd = net::connectTcp("127.0.0.1", port, 2000, &err);
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(net::sendAll(fd, frame.data(), frame.size()));

    net::FrameAssembler as;
    net::Frame f;
    char buf[4096];
    bool got = false;
    while (!got) {
        long n = net::recvSome(fd, buf, sizeof(buf));
        ASSERT_GT(n, 0) << "server closed without an ERROR frame";
        as.feed(buf, static_cast<size_t>(n));
        got = as.next(f);
        ASSERT_FALSE(as.error());
    }
    EXPECT_EQ(f.type, net::FrameType::Error);
    net::ErrorBody e;
    ASSERT_TRUE(decodeError(f.payload, e));
    EXPECT_EQ(e.code, net::ErrorCode::Protocol);
    *message = e.message;

    // And the server hangs up: the next read is EOF.
    long n = net::recvSome(fd, buf, sizeof(buf));
    EXPECT_LE(n, 0);
    net::closeFd(fd);
}

TEST_F(ServerWorld, QueryBeforeHelloIsAProtocolError)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");
    std::string message;
    expectProtocolErrorAndHangUp(
        srv.port(),
        net::encodeFrame(
            net::FrameType::Query,
            encodeQuery(net::QueryBody{"SELECT str1, num FROM t"})),
        &message);
    srv.stop();
}

TEST_F(ServerWorld, GarbageBytesGetTypedProtocolError)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");
    uint64_t errors0 = counterValue("dvp_server_protocol_errors_total");

    std::string err;
    int fd = net::connectTcp("127.0.0.1", srv.port(), 2000, &err);
    ASSERT_GE(fd, 0) << err;
    std::string junk = "this is not a frame";
    ASSERT_TRUE(net::sendAll(fd, junk.data(), junk.size()));

    net::FrameAssembler as;
    net::Frame f;
    char buf[4096];
    bool got = false;
    while (!got) {
        long n = net::recvSome(fd, buf, sizeof(buf));
        if (n <= 0)
            break; // EOF before the error frame is also acceptable
        as.feed(buf, static_cast<size_t>(n));
        got = as.next(f);
    }
    if (got) {
        net::ErrorBody e;
        ASSERT_TRUE(decodeError(f.payload, e));
        EXPECT_EQ(e.code, net::ErrorCode::Protocol);
    }
    net::closeFd(fd);
    srv.stop();
    EXPECT_EQ(counterValue("dvp_server_protocol_errors_total"),
              errors0 + 1);
}

TEST_F(ServerWorld, ConcurrentClientsMatchInProcessDigests)
{
    World w;
    server::Config scfg;
    scfg.workers = 3;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");
    uint64_t conns0 = counterValue("dvp_server_connections_total");
    uint64_t reqs0 = counterValue("dvp_server_requests_total");

    // In-process reference digests through the exact same dispatch.
    std::vector<uint64_t> expect_digest, expect_checksum, expect_rows;
    for (const std::string &sql : queryMix()) {
        sql::RunResult r = sql::runStatement(*w.engine, sql);
        ASSERT_TRUE(r.ok) << sql << ": " << r.error;
        expect_digest.push_back(r.rows.digest());
        expect_checksum.push_back(r.rows.checksum);
        expect_rows.push_back(r.rows.rowCount());
    }

    constexpr int kClients = 4;
    constexpr int kRounds = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            client::Client c;
            if (!c.connect("127.0.0.1", srv.port(),
                           "digest-" + std::to_string(t))
                     .empty()) {
                ++failures;
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                for (size_t qi = 0; qi < queryMix().size(); ++qi) {
                    client::Result r = c.query(queryMix()[qi]);
                    if (!r.ok || r.digest != expect_digest[qi] ||
                        r.checksum != expect_checksum[qi] ||
                        r.rows.size() != expect_rows[qi]) {
                        ADD_FAILURE()
                            << "client " << t << " Q" << (qi + 1)
                            << " mismatch: " << r.error;
                        ++failures;
                    }
                }
            }
            c.close();
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    srv.stop();
    EXPECT_EQ(counterValue("dvp_server_connections_total"),
              conns0 + kClients);
    EXPECT_EQ(counterValue("dvp_server_requests_total"),
              reqs0 + kClients * kRounds * queryMix().size());
}

TEST_F(ServerWorld, ConcurrentInsertsAndSelectsSeeASerialPrefix)
{
    // One wire client INSERTs documents that bring new attributes and
    // new strings while others SELECT those strings, EXPLAIN and read
    // STATS.  Every answer must equal a serial run over some prefix of
    // the inserts, and each reader's prefixes never go backwards.
    constexpr int kInserts = 24;
    constexpr int kReaders = 3;
    const std::vector<std::string> selects = {
        "SELECT str1, num FROM t WHERE num BETWEEN 900000000 AND "
        "900999999",
        "SELECT * FROM t WHERE num BETWEEN 900000000 AND 900999999",
        "SELECT str1, num FROM t",
    };
    auto insert = [](int i) {
        std::string n = std::to_string(i);
        return "INSERT INTO nobench VALUES ('{\"str1\": \"fresh_str_" + n +
               "\", \"num\": " + std::to_string(900000000 + i) +
               ", \"fresh_attr_" + n + "\": \"fresh_val_" + n + "\"}')";
    };

    // Serial reference: digest -> prefix length, per SELECT.
    std::vector<std::map<uint64_t, int>> prefix_of(selects.size());
    {
        World ref;
        for (int k = 0; k <= kInserts; ++k) {
            for (size_t q = 0; q < selects.size(); ++q) {
                sql::RunResult r = sql::runStatement(*ref.engine, selects[q]);
                ASSERT_TRUE(r.ok) << selects[q] << ": " << r.error;
                // Every insert changes every answer.
                ASSERT_TRUE(prefix_of[q].emplace(r.rows.digest(), k).second)
                    << selects[q] << " at prefix " << k;
            }
            if (k < kInserts) {
                ASSERT_TRUE(sql::runStatement(*ref.engine, insert(k)).ok);
            }
        }
    }

    for (size_t workers : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        World w;
        const uint64_t base_docs = w.data.docs.size();
        server::Config scfg;
        scfg.workers = workers;
        scfg.allowInsert = true;
        server::Server srv(*w.engine, scfg);
        ASSERT_EQ(srv.start(), "");

        std::atomic<bool> done{false};
        std::vector<std::thread> readers;
        for (int t = 0; t < kReaders; ++t) {
            readers.emplace_back([&, t] {
                client::Client c;
                std::string err = c.connect("127.0.0.1", srv.port(),
                                            "reader-" + std::to_string(t));
                if (!err.empty()) {
                    ADD_FAILURE() << err;
                    return;
                }
                std::vector<int> last(selects.size(), 0);
                uint64_t last_docs = base_docs;
                auto round = [&] {
                    for (size_t q = 0; q < selects.size(); ++q) {
                        client::Result r = c.query(selects[q]);
                        auto it = prefix_of[q].find(r.digest);
                        if (!r.ok || it == prefix_of[q].end() ||
                            it->second < last[q]) {
                            ADD_FAILURE()
                                << selects[q] << ": " << r.error
                                << " (no serial prefix at or after "
                                << last[q] << ")";
                            return;
                        }
                        last[q] = it->second;
                    }
                    client::Result ex = c.query("EXPLAIN " + selects[0]);
                    EXPECT_TRUE(ex.ok && ex.isMessage) << ex.error;
                    client::Stats st = c.stats();
                    EXPECT_TRUE(st.ok) << st.error;
                    uint64_t docs = st.get("docs");
                    EXPECT_GE(docs, last_docs);
                    EXPECT_LE(docs, base_docs + kInserts);
                    last_docs = docs;
                };
                while (!done.load())
                    round();
                round(); // after the last ack: the whole prefix
                for (size_t q = 0; q < selects.size(); ++q)
                    EXPECT_EQ(last[q], kInserts) << selects[q];
                c.close();
            });
        }

        client::Client writer;
        ASSERT_EQ(writer.connect("127.0.0.1", srv.port(), "writer"), "");
        for (int i = 0; i < kInserts; ++i) {
            client::Result r = writer.query(insert(i));
            EXPECT_TRUE(r.ok && r.isMessage) << r.error;
        }
        writer.close();
        done.store(true);
        for (auto &th : readers)
            th.join();
        srv.stop();
        EXPECT_EQ(w.data.docs.size(), base_docs + kInserts);
    }
}

TEST_F(ServerWorld, DigestsStableWhileRepartitionSwapsUnderneath)
{
    // Adaptation on, tiny window: an in-process workload shift forces
    // a background repartition while wire clients keep querying.
    Params prm;
    prm.background = true;
    prm.adapt = true;
    prm.window = 20;
    prm.changeThreshold = 0.1;
    World w(prm);

    server::Config scfg;
    scfg.workers = 2;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    std::vector<uint64_t> expect_digest;
    for (const std::string &sql : queryMix()) {
        sql::RunResult r = sql::runStatement(*w.engine, sql);
        ASSERT_TRUE(r.ok) << sql << ": " << r.error;
        expect_digest.push_back(r.rows.digest());
    }

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};

    // Wire clients: loop the mix, digests must never change.
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&, t] {
            client::Client c;
            if (!c.connect("127.0.0.1", srv.port(),
                           "race-" + std::to_string(t))
                     .empty()) {
                ++failures;
                return;
            }
            size_t qi = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                size_t i = qi++ % queryMix().size();
                client::Result r = c.query(queryMix()[i]);
                if (!r.ok || r.digest != expect_digest[i]) {
                    ADD_FAILURE() << "during swap, Q" << (i + 1)
                                  << ": " << r.error;
                    ++failures;
                    break;
                }
            }
            c.close();
        });
    }

    // Shift the workload in-process until a repartition lands.
    Rng rng(7);
    int guard = 0;
    while (w.engine->adaptation().repartitions.load(
               std::memory_order_relaxed) == 0 &&
           ++guard < 2000) {
        w.engine->execute(ServerWorld::qs->instantiateShifted(
            guard % nobench::kNumTemplates, rng));
    }
    w.engine->quiesce(); // repartition complete, layout swapped
    EXPECT_GE(w.engine->adaptation().repartitions.load(
                  std::memory_order_relaxed),
              1u);

    // Keep the wire traffic going a little longer on the new layout.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true, std::memory_order_relaxed);
    for (auto &th : clients)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    srv.stop();
}

TEST_F(ServerWorld, BackpressureRejectsAreTypedAndRecoverable)
{
    World w;
    server::Config scfg;
    scfg.workers = 1;
    scfg.maxInflight = 1;
    server::Server srv(*w.engine, scfg);

    // The hook parks the single worker until released, pinning
    // inflight at the watermark deterministically.
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false, release = false;
    srv.setExecuteHook([&] {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    ASSERT_EQ(srv.start(), "");
    uint64_t rejects0 = counterValue("dvp_server_rejects_total");

    client::Client a, b;
    ASSERT_EQ(a.connect("127.0.0.1", srv.port(), "a"), "");
    ASSERT_EQ(b.connect("127.0.0.1", srv.port(), "b"), "");

    std::thread slow([&] {
        client::Result r = a.query("SELECT str1, num FROM t");
        EXPECT_TRUE(r.ok) << r.error;
    });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return entered; });
    }
    ASSERT_EQ(srv.inflight(), 1u);

    // Past the watermark: typed SERVER_BUSY, connection stays usable.
    client::Result busy = b.query("SELECT str1, num FROM t");
    EXPECT_FALSE(busy.ok);
    EXPECT_TRUE(busy.busy());
    EXPECT_EQ(busy.errorCode, net::ErrorCode::ServerBusy);

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    slow.join();
    srv.setExecuteHook({});

    // After the slot frees, the same connection succeeds.  The slot is
    // released only after the worker finishes writing the previous
    // response, so a prompt follow-up can still catch the busy window;
    // SERVER_BUSY is typed precisely so clients can retry it.
    client::Result again = b.query("SELECT str1, num FROM t");
    uint64_t retried = 0;
    for (int i = 0; i < 50 && !again.ok && again.busy(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        again = b.query("SELECT str1, num FROM t");
        ++retried;
    }
    EXPECT_TRUE(again.ok) << again.error;

    a.close();
    b.close();
    srv.stop();
    // The pinned rejection plus one per busy retry above.
    EXPECT_EQ(counterValue("dvp_server_rejects_total"),
              rejects0 + 1 + retried);
}

TEST_F(ServerWorld, GracefulDrainDeliversInflightAndRefusesNew)
{
    World w;
    server::Config scfg;
    scfg.workers = 1;
    server::Server srv(*w.engine, scfg);

    std::mutex mu;
    std::condition_variable cv;
    bool entered = false, release = false;
    srv.setExecuteHook([&] {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    ASSERT_EQ(srv.start(), "");
    uint16_t port = srv.port();

    client::Client a, b;
    ASSERT_EQ(a.connect("127.0.0.1", port, "a"), "");
    ASSERT_EQ(b.connect("127.0.0.1", port, "b"), "");

    std::thread slow([&] {
        // Admitted before the drain: must still get its full result.
        client::Result r = a.query("SELECT str1, num FROM t");
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_GT(r.rows.size(), 0u);
    });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return entered; });
    }

    srv.requestStop();
    // The drain closes the listener before refusing queries; once new
    // connections fail, the SHUTTING_DOWN path is active.
    for (int i = 0; i < 200; ++i) {
        std::string err;
        int fd = net::connectTcp("127.0.0.1", port, 200, &err);
        if (fd < 0)
            break;
        net::closeFd(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    client::Result refused = b.query("SELECT str1, num FROM t");
    EXPECT_FALSE(refused.ok);
    EXPECT_TRUE(refused.shuttingDown())
        << net::errorCodeName(refused.errorCode) << " "
        << refused.error;

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    slow.join();
    srv.stop();
    EXPECT_TRUE(srv.drained());
    EXPECT_FALSE(srv.running());

    // Fully stopped: nothing is listening any more.
    std::string err;
    int fd = net::connectTcp("127.0.0.1", port, 200, &err);
    if (fd >= 0)
        net::closeFd(fd);
    EXPECT_LT(fd, 0);
}

/**
 * Write a 25-line JSON-lines file named @p name under the test temp
 * dir; a nonzero @p badLine (1-based) is not JSON.  Returns the path.
 */
std::string
writeLoadFile(const std::string &name, int badLine = 0)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    for (int i = 0; i < 25; ++i) {
        if (i + 1 == badLine)
            out << "{\"num\": oops}\n";
        else
            out << "{\"num\": " << (9000000 + i)
                << ", \"str1\": \"wire_load_" << i << "\"}\n";
    }
    return path;
}

/** LOAD DATA statement for @p path. */
std::string
loadSql(const std::string &path)
{
    return "LOAD DATA LOCAL INFILE '" + path + "' REPLACE INTO TABLE t";
}

/** dvp_parsed_docs_total summed over every parser form. */
uint64_t
parsedDocs()
{
    uint64_t n = 0;
    for (const char *form : {"tape_avx2", "tape_scalar", "dom"})
        n += obs::Registry::global()
                 .counter(std::string("dvp_parsed_docs_total{form=\"") +
                          form + "\"}")
                 .value();
    return n;
}

TEST_F(ServerWorld, LoadDataOverTheWire)
{
    // Q12: bulk ingest through the server, gated by Config::allowLoad.
    std::string path = writeLoadFile("dvp_server_load.jsonl");

    {
        // Default config refuses LOAD with a typed Unsupported error.
        World w;
        server::Server srv(*w.engine, {});
        ASSERT_EQ(srv.start(), "");
        client::Client c;
        ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
        client::Result r = c.query(loadSql(path));
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorCode, net::ErrorCode::Unsupported);
        c.close();
        srv.stop();
    }

    World w;
    server::Config scfg;
    scfg.allowLoad = true;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");
    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");

    uint64_t docs_before = c.stats().get("docs");
    obs::Histogram &parse_ns =
        obs::Registry::global().histogram("dvp_parse_duration_ns");
    uint64_t parses0 = parse_ns.count();
    uint64_t parsed0 = parsedDocs();
    client::Result r = c.query(loadSql(path));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.isMessage);
    EXPECT_NE(r.message.find("25"), std::string::npos);
    EXPECT_EQ(c.stats().get("docs"), docs_before + 25);
    // One LOAD is one parse observation over its 25 documents.
    EXPECT_EQ(parse_ns.count(), parses0 + 1);
    EXPECT_EQ(parsedDocs(), parsed0 + 25);

    // The ingested rows are immediately queryable on this connection.
    client::Result probe = c.query(
        "SELECT * FROM t WHERE num BETWEEN 9000000 AND 9000024");
    ASSERT_TRUE(probe.ok) << probe.error;
    EXPECT_EQ(probe.rows.size(), 25u);

    // A missing file is an Exec error, not a dead connection.
    client::Result gone = c.query(
        "LOAD DATA LOCAL INFILE '/nonexistent/nope.jsonl' "
        "REPLACE INTO TABLE t");
    EXPECT_FALSE(gone.ok);
    EXPECT_EQ(gone.errorCode, net::ErrorCode::Exec);

    c.close();
    srv.stop();
    std::remove(path.c_str());
}

TEST_F(ServerWorld, LoadWithABadLineAppendsNothing)
{
    // LOAD is all-or-nothing on every front end: line 13 of 25 does not
    // parse, so none of the 12 lines before it are appended either.
    std::string path = writeLoadFile("dvp_server_load_bad.jsonl", 13);

    World w;
    server::Config scfg;
    scfg.allowLoad = true;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");
    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    uint64_t docs0 = c.stats().get("docs");
    client::Result r = c.query(loadSql(path));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, net::ErrorCode::Exec);
    EXPECT_NE(r.error.find("line 13"), std::string::npos) << r.error;
    EXPECT_EQ(c.stats().get("docs"), docs0);
    c.close();
    srv.stop();

    // The shell's path: runStatement with LOAD and INSERT allowed.
    size_t local0 = w.engine->snapshot()->docCount();
    sql::RunResult local =
        sql::runStatement(*w.engine, loadSql(path), true, true);
    EXPECT_FALSE(local.ok);
    EXPECT_EQ(local.errorKind, sql::RunResult::Error::Exec);
    EXPECT_NE(local.error.find("line 13"), std::string::npos)
        << local.error;
    EXPECT_EQ(w.engine->snapshot()->docCount(), local0);
    std::remove(path.c_str());
}

TEST_F(ServerWorld, LoadWhoseWalAppendFailsIsNotAcknowledged)
{
    // Log-before-ack holds for LOAD as it does for INSERT: when the WAL
    // refuses the batch, the client gets a typed error, not an ack, and
    // the batch is not appended.
    namespace fs = std::filesystem;
    std::string path = writeLoadFile("dvp_server_load_wal.jsonl");
    std::string dir = ::testing::TempDir() + "dvp_server_load_wal";
    fs::remove_all(dir);
    {
        World w;
        durability::Config dcfg;
        dcfg.dir = dir;
        dcfg.fsyncPolicy = durability::FsyncPolicy::None;
        durability::Manager mgr(dcfg);
        durability::RecoveryInfo info;
        ASSERT_EQ(mgr.open(w.data, info), "");
        w.engine->setDurability(&mgr);

        server::Config scfg;
        scfg.allowLoad = true;
        server::Server srv(*w.engine, scfg);
        ASSERT_EQ(srv.start(), "");
        client::Client c;
        ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
        uint64_t docs0 = c.stats().get("docs");

        FaultInjector::global().arm(0);
        client::Result r = c.query(loadSql(path));
        FaultInjector::global().disarm();
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorCode, net::ErrorCode::Exec);
        EXPECT_NE(r.error.find("not durable"), std::string::npos)
            << r.error;
        EXPECT_EQ(c.stats().get("docs"), docs0);
        c.close();
        srv.stop();
    }
    fs::remove_all(dir);
    std::remove(path.c_str());
}

TEST_F(ServerWorld, IdleSessionsAreReaped)
{
    World w;
    server::Config scfg;
    scfg.idleTimeoutMs = 150;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");

    // Go idle past the timeout: the server hangs up on us.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    client::Result r = c.query("SELECT str1, num FROM t");
    EXPECT_FALSE(r.ok);
    srv.stop();
}

TEST_F(ServerWorld, ServerMetricsReachThePrometheusExporter)
{
    // Satellite: dvp_server_* counters/gauges/histogram flow through
    // the obs registry and the Prometheus exporter verbatim.
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");
    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    ASSERT_TRUE(c.query("SELECT str1, num FROM t").ok);
    c.close();
    srv.stop();

    std::string text =
        obs::exportPrometheus(obs::Registry::global());
    EXPECT_NE(text.find("# TYPE dvp_server_connections_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("dvp_server_requests_total"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dvp_server_queue_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dvp_server_request_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("dvp_server_request_ns_count"),
              std::string::npos);
    // Gauges exist even when they currently read zero.
    EXPECT_NE(text.find("dvp_server_sessions_active"),
              std::string::npos);
}

TEST_F(ServerWorld, EveryAnsweredStatementObservesEncodeAndSendOnce)
{
    // The result path is visible from /metrics alone: each statement a
    // worker answers — rows, message or typed error — adds exactly one
    // observation to the encode stage and one to the send stage.
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");
    auto &reg = obs::Registry::global();
    obs::Histogram &encode =
        reg.histogram("dvp_request_stage_ns{stage=\"encode\"}");
    obs::Histogram &send =
        reg.histogram("dvp_request_stage_ns{stage=\"send\"}");
    uint64_t encode0 = encode.count(), send0 = send.count();

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    uint64_t answered = 0;
    for (const std::string &sql : queryMix()) {
        ASSERT_TRUE(c.query(sql).ok) << sql;
        ++answered;
    }
    ASSERT_TRUE(c.query("EXPLAIN SELECT str1, num FROM t").ok);
    ++answered;
    EXPECT_EQ(c.query("SELEKT nope").errorCode, net::ErrorCode::Parse);
    ++answered;
    c.close();
    srv.stop(); // joins the workers: every observation has landed

    EXPECT_EQ(encode.count() - encode0, answered);
    EXPECT_EQ(send.count() - send0, answered);
    std::string text = obs::exportPrometheus(reg);
    EXPECT_NE(text.find("dvp_request_stage_ns_count{stage=\"encode\"}"),
              std::string::npos);
    EXPECT_NE(text.find("dvp_request_stage_ns_count{stage=\"send\"}"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Request-scoped observability over the wire.
// ---------------------------------------------------------------------

TEST_F(ServerWorld, TraceIdAndOperatorSummaryPropagate)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    c.setTraceId(0xabad1deaf00dfeedull);
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "traced"), "");

    client::Result r =
        c.query("SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(r.ok) << r.error;
    // The server echoes the trace id and ships the operator summary.
    EXPECT_TRUE(r.hasTraceId);
    EXPECT_EQ(r.traceId, 0xabad1deaf00dfeedull);
    EXPECT_GT(r.execNs, 0u);
    ASSERT_FALSE(r.opStats.empty());
    auto get = [&](const std::string &k) -> uint64_t {
        for (const auto &[key, v] : r.opStats)
            if (key == k)
                return v;
        ADD_FAILURE() << "missing opStats key " << k;
        return 0;
    };
    EXPECT_EQ(get("rows_out"), r.rows.size());
    EXPECT_GT(get("rows_scanned"), 0u);

    // Clearing the trace id stops the echo but keeps the summary.
    c.setTraceId(0);
    client::Result r2 = c.query("SELECT str1, num FROM t");
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_FALSE(r2.hasTraceId);
    EXPECT_FALSE(r2.opStats.empty());

    c.close();
    srv.stop();
}

TEST_F(ServerWorld, Level1HelloIsRefusedAndTheNextClientIsServed)
{
    // Feature level 1 (the pre-TLV encoding) is retired: its HELLO gets
    // a typed PROTOCOL_ERROR and the connection closes, and the server
    // keeps serving the next client.
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    net::HelloBody hello;
    hello.wireVersion = 1;
    hello.clientName = "old";
    std::string message;
    expectProtocolErrorAndHangUp(
        srv.port(),
        net::encodeFrame(net::FrameType::Hello, encodeHello(hello)),
        &message);
    EXPECT_NE(message.find("wire version 1"), std::string::npos)
        << message;

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "next"), "");
    client::Result r =
        c.query("SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(r.ok) << r.error;
    sql::RunResult local = sql::runStatement(
        *w.engine, "SELECT * FROM t WHERE num BETWEEN 1000 AND 1999");
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(r.digest, local.rows.digest());
    c.close();
    srv.stop();
}

TEST_F(ServerWorld, StatsExposeAdaptiveAuditTrail)
{
    World w;
    server::Server srv(*w.engine, {});
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok) << st.error;

    // Construction recorded the initial partitioning decision.
    EXPECT_GE(st.get("audit_records"), 1u);
    EXPECT_GE(st.get("audit_last_seq"), 1u);
    EXPECT_GT(st.get("audit_last_tables"), 0u);
    EXPECT_EQ(st.get("audit_last_layout_fingerprint"),
              w.engine->snapshot()->layoutFingerprint());
    EXPECT_EQ(st.get("layout_epoch"), w.engine->snapshot()->epoch());

    c.close();
    srv.stop();
}

// ---------------------------------------------------------------------
// STATS is a snapshot of the metrics registry.
// ---------------------------------------------------------------------

/** Counter and gauge samples of a Prometheus dump, by full name. */
std::map<std::string, std::string>
promScalars(const std::string &text)
{
    std::map<std::string, std::string> out;
    std::istringstream in(text);
    std::string line;
    bool scalar = false;
    while (std::getline(in, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            scalar = line.substr(line.rfind(' ') + 1) != "histogram";
            continue;
        }
        size_t sp = line.rfind(' ');
        if (scalar && sp != std::string::npos)
            out[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return out;
}

TEST_F(ServerWorld, StatsReconcileWithTheRegistry)
{
    // A fixed mix on one server: three clients that each get
    // kPerClient statements admitted, one SERVER_BUSY forced by a
    // pinned statement, and one garbage connection.
    constexpr uint64_t kPerClient = 2;
    World w;
    server::Config scfg;
    scfg.workers = 1;
    scfg.maxInflight = 1;
    server::Server srv(*w.engine, scfg);
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false, release = false;
    srv.setExecuteHook([&] {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    ASSERT_EQ(srv.start(), "");
    uint64_t conns0 = counterValue("dvp_server_connections_total");
    uint64_t reqs0 = counterValue("dvp_server_requests_total");
    uint64_t rejects0 = counterValue("dvp_server_rejects_total");
    uint64_t errors0 = counterValue("dvp_server_protocol_errors_total");

    client::Client a, b, c;
    ASSERT_EQ(a.connect("127.0.0.1", srv.port(), "a"), "");
    ASSERT_EQ(b.connect("127.0.0.1", srv.port(), "b"), "");
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "c"), "");

    // Every QUERY is either admitted or rejected as SERVER_BUSY.
    std::atomic<uint64_t> admitted{0}, busy{0};
    auto ask = [&](client::Client &cl) {
        client::Result r = cl.query("SELECT str1, num FROM t");
        EXPECT_TRUE(r.ok || r.busy()) << r.error;
        ++(r.busy() ? busy : admitted);
        return r.busy();
    };
    // Admit @p n statements, retrying the busy window that follows a
    // response (the slot frees just after the reply is written).
    auto admit = [&](client::Client &cl, uint64_t n) {
        for (int tries = 0; n > 0 && tries < 200; ++tries) {
            if (ask(cl))
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            else
                --n;
        }
        EXPECT_EQ(n, 0u);
    };

    std::thread slow([&] { admit(a, 1); });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return entered; });
    }
    EXPECT_TRUE(ask(b)); // past the watermark
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    slow.join();
    srv.setExecuteHook({});
    admit(a, kPerClient - 1);
    admit(b, kPerClient);
    admit(c, kPerClient);

    std::string err;
    int fd = net::connectTcp("127.0.0.1", srv.port(), 2000, &err);
    ASSERT_GE(fd, 0) << err;
    std::string junk = "this is not a frame";
    ASSERT_TRUE(net::sendAll(fd, junk.data(), junk.size()));
    char buf[4096];
    while (net::recvSome(fd, buf, sizeof(buf)) > 0) {
    } // the server answers with an ERROR frame and hangs up
    net::closeFd(fd);

    // Quiesce: the worker's last bookkeeping precedes the inflight
    // release, so nothing moves the registry after this.
    for (int i = 0; i < 500 && srv.inflight() != 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(srv.inflight(), 0u);

    client::Stats st = a.stats();
    ASSERT_TRUE(st.ok) << st.error;
    std::map<std::string, std::string> prom =
        promScalars(obs::exportPrometheus(obs::Registry::global()));

    EXPECT_EQ(admitted.load(), 3 * kPerClient);
    EXPECT_EQ(st.get("server_connections_total"), conns0 + 4);
    EXPECT_EQ(st.get("server_requests_total"), reqs0 + admitted.load());
    EXPECT_EQ(st.get("server_rejects_total"), rejects0 + busy.load());
    EXPECT_EQ(st.get("server_protocol_errors_total"), errors0 + 1);
    EXPECT_EQ(st.get("server_sessions_active"), 3u);
    EXPECT_EQ(st.get("inflight"), 0u);
    EXPECT_EQ(st.get("docs"), w.data.docs.size());

    // Every key but the hand-listed ones is a registry counter or
    // gauge with "dvp_" stripped and the value /metrics prints, and
    // every registry counter and gauge is there.
    size_t from_registry = 0;
    for (const auto &[key, value] : st.entries) {
        if (key == "inflight" || key == "docs" || key == "layout_epoch" ||
            key.rfind("audit_", 0) == 0)
            continue;
        ++from_registry;
        auto it = prom.find("dvp_" + key);
        ASSERT_NE(it, prom.end()) << key;
        EXPECT_EQ(it->second, std::to_string(value)) << key;
    }
    size_t dvp_scalars = 0;
    for (const auto &[name, value] : prom)
        dvp_scalars += name.rfind("dvp_", 0) == 0;
    EXPECT_EQ(from_registry, dvp_scalars);

    a.close();
    b.close();
    c.close();
    srv.stop();
}

// ---------------------------------------------------------------------
// HTTP scrape endpoint.
// ---------------------------------------------------------------------

namespace
{

/** Blocking one-shot HTTP GET; returns the raw response bytes. */
std::string
httpGet(uint16_t port, const std::string &target)
{
    std::string err;
    int fd = net::connectTcp("127.0.0.1", port, 2000, &err);
    if (fd < 0)
        return "connect failed: " + err;
    std::string req = "GET " + target +
                      " HTTP/1.1\r\nHost: localhost\r\n"
                      "Connection: close\r\n\r\n";
    net::sendAll(fd, req.data(), req.size());
    std::string resp;
    char buf[4096];
    long got;
    while ((got = net::recvSome(fd, buf, sizeof(buf))) > 0)
        resp.append(buf, static_cast<size_t>(got));
    net::closeFd(fd);
    return resp;
}

} // namespace

TEST(HttpEndpoint, MetricsAndHealthz)
{
    server::HttpServer http((server::HttpConfig()));
    ASSERT_EQ(http.start(), "");
    ASSERT_GT(http.port(), 0);

    // Seed at least one counter so the exposition is non-trivial.
    DVP_COUNTER_INC("dvp_http_test_counter_total");

    std::string metrics = httpGet(http.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics.find("# TYPE dvp_http_test_counter_total "
                           "counter"),
              std::string::npos);

    std::string health = httpGet(http.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    std::string missing = httpGet(http.port(), "/nope");
    EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

    EXPECT_GE(http.requestsServed(), 3u);
    http.stop();
    EXPECT_FALSE(http.running());
}

// ---------------------------------------------------------------------
// Slow-query log.
// ---------------------------------------------------------------------

TEST_F(ServerWorld, SlowQueryLogWritesNdjsonRecords)
{
    World w;
    std::string path = "slow_query_test.ndjson";
    std::remove(path.c_str());

    server::Config scfg;
    scfg.slowMs = 1;
    scfg.slowLogPath = path;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    c.setTraceId(0x5105105105105105ull);
    ASSERT_EQ(c.connect("127.0.0.1", srv.port()), "");

    // The self-join materializes one pair per document — heavy enough
    // to cross a 1 ms threshold; retry a few times to be safe.
    const std::string join =
        "SELECT * FROM t AS l INNER JOIN t AS r "
        "ON l.nested_obj.str = r.str1 "
        "WHERE l.num BETWEEN 0 AND 999999";
    std::string line;
    for (int attempt = 0; attempt < 20 && line.empty(); ++attempt) {
        ASSERT_TRUE(c.query(join).ok);
        std::ifstream in(path);
        std::getline(in, line);
    }
    c.close();
    srv.stop();

    ASSERT_FALSE(line.empty())
        << "no slow-query record after 20 join executions";
    // One NDJSON object per line with the documented fields.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"statement\":\"SELECT * FROM t AS l"),
              std::string::npos);
    EXPECT_NE(line.find("\"trace_id\":\"5105105105105105\""),
              std::string::npos);
    EXPECT_NE(line.find("\"exec_ns\":"), std::string::npos);
    EXPECT_NE(line.find("\"layout_epoch\":"), std::string::npos);
    EXPECT_NE(line.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(line.find("\"rows_out\":"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace dvp

/**
 * @file
 * Client library for the DVP wire protocol (src/net/wire.hh).
 *
 * dvp::client::Client is a small blocking connection handle: connect()
 * performs the HELLO handshake, query() runs one SQL statement and
 * returns a typed Result (rows read in place from the RESULT payload,
 * or a message, or a typed error), stats() fetches server counters,
 * close() says goodbye.  One Client is one TCP connection and is not
 * thread-safe; open one per thread (the server multiplexes arbitrarily
 * many).
 */

#ifndef DVP_CLIENT_CLIENT_HH
#define DVP_CLIENT_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hh"

namespace dvp::client
{

/** Outcome of one statement. */
struct Result
{
    bool ok = false;
    net::ErrorCode errorCode = net::ErrorCode::None;
    std::string error; ///< message when !ok

    /** Typed rejection the caller may retry after backoff. */
    bool busy() const { return errorCode == net::ErrorCode::ServerBusy; }

    /** True when the server is draining; reconnect later. */
    bool shuttingDown() const
    {
        return errorCode == net::ErrorCode::ShuttingDown;
    }

    /** Message-kind results (EXPLAIN text, LOAD summaries). */
    bool isMessage = false;
    std::string message;

    /**
     * Row-kind results.  rows[r][c] is a net::CellView: kind(),
     * integer(), text() read straight from the kept payload.
     */
    std::vector<std::string> columns;
    std::vector<int64_t> oids;
    net::DecodedRows rows;
    uint64_t digest = 0;   ///< engine::ResultSet::digest() equivalent
    uint64_t checksum = 0; ///< engine::ResultSet::checksum equivalent
    uint64_t execNs = 0;   ///< server-side statement wall time

    /**
     * The TLV extras (see net/wire.hh): the echoed request trace id
     * and the server's per-operator summary in
     * engine::QueryStats::summary() key order.
     */
    bool hasTraceId = false;
    uint64_t traceId = 0;
    std::vector<std::pair<std::string, uint64_t>> opStats;
};

/** Outcome of a stats() exchange. */
struct Stats
{
    bool ok = false;
    net::ErrorCode code = net::ErrorCode::None; ///< set as Result::errorCode
    std::string error; ///< message when !ok
    std::vector<std::pair<std::string, uint64_t>> entries;

    /** Value for @p key, or @p fallback when absent. */
    uint64_t get(const std::string &key, uint64_t fallback = 0) const;
};

/** One connection to a dvpd server. */
class Client
{
  public:
    Client() = default;
    ~Client(); ///< closes the socket (without the CLOSE frame)

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /**
     * Connect and complete the HELLO handshake.
     * @return "" on success, otherwise the failure reason.
     */
    std::string connect(const std::string &host, uint16_t port,
                        const std::string &clientName = "dvp-client",
                        int timeout_ms = 5000);

    /** True between a successful connect() and close()/failure. */
    bool connected() const { return fd >= 0; }

    /** Server name from HELLO_OK. */
    const std::string &serverName() const { return server_name; }

    /** Session id assigned by the server. */
    uint64_t sessionId() const { return session_id; }

    /**
     * Trace id attached to every subsequent query; 0 clears it.  The
     * server stamps it into its span tracer and echoes it in the
     * RESULT, so one wire request can be correlated with the
     * server-side trace dump.
     */
    void setTraceId(uint64_t id) { trace_id = id; }
    uint64_t traceId() const { return trace_id; }

    /** Execute one SQL statement (blocking). */
    Result query(const std::string &sql);

    /** Fetch the server's counters (blocking). */
    Stats stats();

    /** Send CLOSE and shut the connection down.  Idempotent. */
    void close();

  private:
    /** Send one frame; false (and disconnect) on transport failure. */
    bool sendFrame(net::FrameType type, const std::string &payload);

    /** Block until the next complete frame; false on EOF/corruption. */
    bool readFrame(net::Frame &out, std::string *err);

    int fd = -1;
    net::FrameAssembler in;
    std::string server_name;
    uint64_t session_id = 0;
    uint64_t trace_id = 0;
};

} // namespace dvp::client

#endif // DVP_CLIENT_CLIENT_HH

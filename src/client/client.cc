#include "client/client.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/socket.hh"

namespace dvp::client
{

uint64_t
Stats::get(const std::string &key, uint64_t fallback) const
{
    for (const auto &[k, v] : entries)
        if (k == key)
            return v;
    return fallback;
}

Client::~Client()
{
    net::closeFd(fd);
}

Client::Client(Client &&other) noexcept
    : fd(std::exchange(other.fd, -1)), in(std::move(other.in)),
      server_name(std::move(other.server_name)),
      session_id(std::exchange(other.session_id, 0)),
      trace_id(other.trace_id)
{
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        net::closeFd(fd);
        fd = std::exchange(other.fd, -1);
        in = std::move(other.in);
        server_name = std::move(other.server_name);
        session_id = std::exchange(other.session_id, 0);
        trace_id = other.trace_id;
    }
    return *this;
}

std::string
Client::connect(const std::string &host, uint16_t port,
                const std::string &clientName, int timeout_ms)
{
    if (connected())
        return "already connected";

    std::string err;
    in = net::FrameAssembler{}; // nothing of an earlier connection
    fd = net::connectTcp(host, port, timeout_ms, &err);
    if (fd < 0)
        return err;

    net::HelloBody hello;
    hello.clientName = clientName;
    if (!sendFrame(net::FrameType::Hello, encodeHello(hello)))
        return "handshake send failed";

    net::Frame f;
    if (!readFrame(f, &err)) {
        close();
        return err.empty() ? "handshake read failed" : err;
    }
    if (f.type == net::FrameType::Error) {
        net::ErrorBody e;
        decodeError(f.payload, e);
        close();
        return "server rejected handshake: " + e.message;
    }
    net::HelloOkBody ok;
    if (f.type != net::FrameType::HelloOk ||
        !decodeHelloOk(f.payload, ok)) {
        close();
        return "unexpected handshake response";
    }
    // The server replies with the one level this tree speaks; anything
    // else is a peer we cannot reason about.
    if (ok.wireVersion != net::kFeatureLevel) {
        close();
        return "server speaks wire version " +
               std::to_string(ok.wireVersion);
    }
    server_name = ok.serverName;
    session_id = ok.sessionId;
    return "";
}

namespace
{

Result
failed(net::ErrorCode code, std::string message)
{
    Result r;
    r.errorCode = code;
    r.error = std::move(message);
    return r;
}

} // namespace

Result
Client::query(const std::string &sql)
{
    using net::ErrorCode;
    if (!connected())
        return failed(ErrorCode::ConnectionLost, "not connected");

    net::QueryBody q;
    q.sql = sql;
    q.hasTraceId = trace_id != 0;
    q.traceId = trace_id;
    if (!sendFrame(net::FrameType::Query, encodeQuery(q)))
        return failed(ErrorCode::ConnectionLost,
                      "send failed (connection lost)");

    net::Frame f;
    std::string err;
    if (!readFrame(f, &err))
        return failed(in.error() ? ErrorCode::Protocol
                                 : ErrorCode::ConnectionLost,
                      err.empty() ? "connection closed by server" : err);

    if (f.type == net::FrameType::Error) {
        net::ErrorBody e;
        if (!decodeError(f.payload, e))
            return failed(ErrorCode::Protocol, "malformed ERROR frame");
        return failed(e.code, std::move(e.message));
    }
    if (f.type != net::FrameType::Result)
        return failed(ErrorCode::Protocol,
                      std::string("unexpected frame ") +
                          net::frameTypeName(f.type));

    Result r;
    net::ResultBody body;
    if (!decodeResult(std::move(f.payload), body, r.rows))
        return failed(ErrorCode::Protocol, "malformed RESULT frame");
    r.ok = true;
    if (body.kind == net::ResultBody::Kind::Message) {
        r.isMessage = true;
        r.message = std::move(body.message);
    } else {
        r.columns = std::move(body.columns);
        r.oids = std::move(body.oids);
        r.digest = body.digest;
        r.checksum = body.checksum;
    }
    r.execNs = body.execNs;
    r.hasTraceId = body.hasTraceId;
    r.traceId = body.traceId;
    r.opStats = std::move(body.opStats);
    return r;
}

Stats
Client::stats()
{
    using net::ErrorCode;
    Stats s;
    auto fail = [&s](ErrorCode code, std::string message) {
        s.code = code;
        s.error = std::move(message);
        return s;
    };
    if (!connected())
        return fail(ErrorCode::ConnectionLost, "not connected");
    if (!sendFrame(net::FrameType::Stats, ""))
        return fail(ErrorCode::ConnectionLost,
                    "send failed (connection lost)");
    net::Frame f;
    std::string err;
    if (!readFrame(f, &err))
        return fail(in.error() ? ErrorCode::Protocol
                               : ErrorCode::ConnectionLost,
                    err.empty() ? "connection closed by server" : err);
    if (f.type == net::FrameType::Error) {
        net::ErrorBody e;
        if (!decodeError(f.payload, e))
            return fail(ErrorCode::Protocol, "malformed ERROR frame");
        return fail(e.code, std::move(e.message));
    }
    if (f.type != net::FrameType::StatsResult)
        return fail(ErrorCode::Protocol,
                    std::string("unexpected frame ") +
                        net::frameTypeName(f.type));
    net::StatsBody body;
    if (!decodeStats(f.payload, body))
        return fail(ErrorCode::Protocol, "malformed STATS_RESULT frame");
    s.ok = true;
    s.entries = std::move(body.entries);
    return s;
}

void
Client::close()
{
    if (!connected())
        return;
    sendFrame(net::FrameType::Close, "");
    net::closeFd(fd);
    fd = -1;
}

bool
Client::sendFrame(net::FrameType type, const std::string &payload)
{
    std::string frame = net::encodeFrame(type, payload);
    if (!net::sendAll(fd, frame.data(), frame.size())) {
        net::closeFd(fd);
        fd = -1;
        return false;
    }
    return true;
}

bool
Client::readFrame(net::Frame &out, std::string *err)
{
    char buf[65536];
    while (true) {
        if (in.next(out))
            return true;
        if (in.error()) {
            if (err)
                *err = "protocol error: " + in.errorDetail();
            net::closeFd(fd);
            fd = -1;
            return false;
        }
        long got = net::recvSome(fd, buf, sizeof(buf));
        if (got > 0) {
            in.feed(buf, static_cast<size_t>(got));
            continue;
        }
        if (got < 0 && err)
            *err = std::string("recv: ") + std::strerror(errno);
        net::closeFd(fd);
        fd = -1;
        return false;
    }
}

} // namespace dvp::client

#include "server/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sys/socket.h>
#include <type_traits>
#include <unistd.h>

#include "json/writer.hh"
#include "net/socket.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sql/run.hh"
#include "util/logging.hh"

namespace dvp::server
{

namespace
{

/** Server name reported in HELLO_OK. */
constexpr const char *kServerName = "dvpd";

/** poll() tick in ms, which bounds timeout/drain detection latency. */
constexpr int kTickMs = 50;

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** A scrape request past this without its blank line is abuse. */
constexpr size_t kMaxHttpRequestBytes = 8192;

std::string
httpReply(int code, const char *status, const std::string &type,
          const std::string &body)
{
    std::string head = "HTTP/1.1 " + std::to_string(code) + " " +
                       status + "\r\n";
    head += "Content-Type: " + type + "\r\n";
    head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    head += "Connection: close\r\n\r\n";
    return head + body;
}

/** The whole response to a request line "GET <path> HTTP/1.x". */
std::string
httpResponse(const std::string &request_line)
{
    size_t sp1 = request_line.find(' ');
    size_t sp2 =
        sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
        return httpReply(400, "Bad Request", "text/plain",
                         "bad request\n");
    if (request_line.compare(0, sp1, "GET") != 0)
        return httpReply(405, "Method Not Allowed", "text/plain",
                         "only GET is supported\n");
    std::string path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (path == "/metrics")
        return httpReply(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         obs::exportPrometheus(obs::Registry::global()));
    if (path == "/healthz")
        return httpReply(200, "OK", "text/plain", "ok\n");
    return httpReply(404, "Not Found", "text/plain",
                     "unknown path; try /metrics or /healthz\n");
}

/** The process-wide signal target (see installSignalHandlers). */
std::atomic<Server *> g_signal_target{nullptr};

void
onStopSignal(int)
{
    Server *s = g_signal_target.load(std::memory_order_relaxed);
    if (s)
        s->requestStop();
}

} // namespace

/** Per-connection state.  The event loop owns the read side; any
 * thread may write a frame under write_mu.  The fd closes when the
 * last shared_ptr drops, so a worker finishing late can never write
 * into a recycled descriptor. */
struct Server::Session
{
    int fd = -1;
    uint64_t id = 0;
    net::FrameAssembler in;
    bool helloDone = false;
    int64_t lastActivityMs = 0;
    std::atomic<bool> dead{false};
    std::mutex write_mu;

    ~Session() { net::closeFd(fd); }

    /** Send one complete frame (header + payload). */
    bool
    send(const std::string &frame)
    {
        std::lock_guard<std::mutex> lock(write_mu);
        if (dead.load(std::memory_order_relaxed))
            return false;
        if (!net::sendAll(fd, frame.data(), frame.size())) {
            dead.store(true, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    bool
    writeFrame(net::FrameType type, const std::string &payload)
    {
        return send(net::encodeFrame(type, payload));
    }

    bool
    writeError(net::ErrorCode code, const std::string &message)
    {
        net::ErrorBody e{code, message};
        return writeFrame(net::FrameType::Error, net::encodeError(e));
    }
};

bool
encodeRowResult(const net::ResultBody &meta, const engine::ResultSet &rs,
                const engine::DataSet &data, size_t maxBytes,
                std::string &out)
{
    // Every row costs at least its u32 cell count, so this also keeps
    // the row count inside the u32 the head carries.
    if (rs.rows.size() > maxBytes / 4)
        return false;
    net::ResultWriter w(meta, static_cast<uint32_t>(rs.rows.size()));
    // Every row takes at least its cell count and a byte per cell.
    w.reserve(std::min(rs.rows.size() * (4 + rs.rows.width()), maxBytes));
    for (engine::ResultRows::Row row : rs.rows) {
        w.row(static_cast<uint32_t>(row.size()));
        for (storage::Slot s : row) {
            if (storage::isNull(s))
                w.null();
            else if (storage::isStringSlot(s))
                w.text(data.dict.text(storage::decodeString(s)));
            else
                w.integer(s);
        }
        if (w.size() > maxBytes)
            return false;
    }
    out = w.finish(rs.digest());
    return out.size() - net::kHeaderBytes <= maxBytes;
}

Server::Server(adaptive::AdaptiveEngine &engine, Config cfg)
    : engine(&engine), cfg(std::move(cfg))
{
    if (this->cfg.workers == 0)
        this->cfg.workers = 1;
    if (this->cfg.maxInflight == 0)
        this->cfg.maxInflight = 1;
}

Server::~Server()
{
    if (g_signal_target.load(std::memory_order_relaxed) == this)
        installSignalHandlers(nullptr);
    stop();
}

std::string
Server::start()
{
    if (running())
        return "server already running";

    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return std::string("pipe: ") + std::strerror(errno);
    wake_rd = pipefd[0];
    wake_wr = pipefd[1];
    setNonBlocking(wake_rd);
    setNonBlocking(wake_wr);

    std::string err;
    listen_fd = net::listenTcp(cfg.host, cfg.port, &port_, &err);
    if (listen_fd >= 0 && cfg.httpPort) {
        http_fd = net::listenTcp("127.0.0.1", *cfg.httpPort, &http_port_,
                                 &err);
        if (http_fd < 0) {
            err = "http " + err;
            net::closeFd(listen_fd);
            listen_fd = -1;
        }
    }
    if (listen_fd < 0) {
        net::closeFd(wake_rd);
        net::closeFd(wake_wr);
        wake_rd = wake_wr = -1;
        return err;
    }
    setNonBlocking(listen_fd);
    if (http_fd >= 0)
        setNonBlocking(http_fd);

    stop_requested_.store(false);
    draining_.store(false);
    loop_done_.store(false);
    workers_quit = false;
    running_.store(true, std::memory_order_release);

    loop_thread = std::thread([this] { eventLoop(); });
    for (size_t i = 0; i < cfg.workers; ++i)
        worker_threads.emplace_back([this] { workerLoop(); });

    inform("%s: listening on %s:%u (%zu workers, max-inflight %zu)",
           kServerName, cfg.host.c_str(), unsigned(port_),
           cfg.workers, cfg.maxInflight);
    if (http_fd >= 0)
        inform("http: serving /metrics and /healthz on 127.0.0.1:%u",
               unsigned(http_port_));
    return "";
}

void
Server::wake()
{
    if (wake_wr >= 0) {
        char b = 'w';
        // Best effort: a full pipe already guarantees a pending wake.
        [[maybe_unused]] long rc = ::write(wake_wr, &b, 1);
    }
}

void
Server::requestStop()
{
    stop_requested_.store(true, std::memory_order_release);
    wake();
}

void
Server::stop()
{
    std::lock_guard<std::mutex> lock(stop_mu);
    if (!loop_thread.joinable() && worker_threads.empty())
        return;

    requestStop();
    if (loop_thread.joinable())
        loop_thread.join();
    {
        std::lock_guard<std::mutex> qlock(queue_mu);
        workers_quit = true;
    }
    queue_cv.notify_all();
    for (std::thread &t : worker_threads)
        if (t.joinable())
            t.join();
    worker_threads.clear();

    net::closeFd(listen_fd);
    listen_fd = -1;
    net::closeFd(http_fd);
    http_fd = -1;
    net::closeFd(wake_rd);
    net::closeFd(wake_wr);
    wake_rd = wake_wr = -1;
    running_.store(false, std::memory_order_release);
}

void
Server::setExecuteHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(hook_mu);
    execute_hook = std::move(hook);
}

void
Server::installSignalHandlers(Server *s)
{
    g_signal_target.store(s, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = s ? onStopSignal : SIG_DFL;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: blocked syscalls return
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

// ---------------------------------------------------------------------
// Event loop.
// ---------------------------------------------------------------------

void
Server::eventLoop()
{
    std::vector<pollfd> pfds;
    while (true) {
        if (stop_requested_.load(std::memory_order_acquire) &&
            !draining_.load(std::memory_order_relaxed)) {
            // Begin the drain: no new connections, no new admissions;
            // everything already admitted runs to completion.
            draining_.store(true, std::memory_order_release);
            net::closeFd(listen_fd);
            listen_fd = -1;
            net::closeFd(http_fd);
            http_fd = -1;
            debug("server: draining (%zu inflight)", inflight());
        }
        if (draining_.load(std::memory_order_relaxed)) {
            bool queue_empty;
            {
                std::lock_guard<std::mutex> lock(queue_mu);
                queue_empty = queue.empty();
            }
            if (queue_empty &&
                inflight_.load(std::memory_order_acquire) == 0)
                break; // drain complete
        }

        pfds.clear();
        pfds.push_back({wake_rd, POLLIN, 0});
        for (int fd : {listen_fd, http_fd})
            if (fd >= 0)
                pfds.push_back({fd, POLLIN, 0});
        for (auto &[fd, s] : sessions)
            pfds.push_back({fd, POLLIN, 0});
        for (auto &[fd, c] : http_conns)
            pfds.push_back(
                {fd, static_cast<short>(c.out.empty() ? POLLIN : POLLOUT),
                 0});

        int rc = ::poll(pfds.data(), pfds.size(), kTickMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("server poll: %s", std::strerror(errno));
            break;
        }
        for (const pollfd &p : pfds) {
            if (p.revents == 0)
                continue;
            if (p.fd == wake_rd) {
                char buf[64];
                while (::read(wake_rd, buf, sizeof(buf)) > 0) {
                }
            } else if (p.fd == listen_fd || p.fd == http_fd) {
                acceptAll(p.fd);
            } else if (auto it = sessions.find(p.fd);
                       it != sessions.end()) {
                std::shared_ptr<Session> s = it->second;
                if (p.revents & (POLLERR | POLLNVAL))
                    closeSession(s);
                else
                    serviceSession(s); // POLLHUP still drains the data
            } else if (auto hc = http_conns.find(p.fd);
                       hc != http_conns.end()) {
                if ((p.revents & (POLLERR | POLLNVAL)) ||
                    !serviceHttp(p.fd, hc->second)) {
                    net::closeFd(p.fd);
                    http_conns.erase(hc);
                }
            }
        }
        if (cfg.idleTimeoutMs > 0)
            reapIdle(nowMs());
    }

    // Drain complete: every admitted statement has answered.  Shut
    // sessions down so clients observe EOF; fds close when the last
    // reference drops.
    for (auto &[fd, s] : sessions) {
        s->dead.store(true, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
    }
    sessions.clear();
    for (auto &[fd, c] : http_conns)
        net::closeFd(fd);
    http_conns.clear();
    DVP_GAUGE_SET("dvp_server_sessions_active", 0);
    loop_done_.store(true, std::memory_order_release);
}

void
Server::acceptAll(int listener)
{
    while (true) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: accepted everything pending
        }
        setNonBlocking(fd);
        if (listener == http_fd) {
            http_conns[fd].lastActivityMs = nowMs();
            continue;
        }
        DVP_TRACE_SPAN(accept_span, "accept", nullptr);
        auto s = std::make_shared<Session>();
        s->fd = fd;
        s->id = next_session_id++;
        s->lastActivityMs = nowMs();
        sessions.emplace(fd, std::move(s));
        DVP_COUNTER_INC("dvp_server_connections_total");
        DVP_GAUGE_SET("dvp_server_sessions_active",
                      static_cast<int64_t>(sessions.size()));
    }
}

void
Server::closeSession(const std::shared_ptr<Session> &s)
{
    if (sessions.erase(s->fd) == 0)
        return; // already closed this iteration
    s->dead.store(true, std::memory_order_relaxed);
    ::shutdown(s->fd, SHUT_RDWR);
    DVP_GAUGE_SET("dvp_server_sessions_active",
                  static_cast<int64_t>(sessions.size()));
}

void
Server::reapIdle(int64_t now_ms)
{
    std::vector<std::shared_ptr<Session>> idle;
    for (auto &[fd, s] : sessions)
        if (now_ms - s->lastActivityMs > cfg.idleTimeoutMs)
            idle.push_back(s);
    for (auto &s : idle) {
        debug("server: closing idle session %llu",
              static_cast<unsigned long long>(s->id));
        closeSession(s);
    }
    std::erase_if(http_conns, [&](const auto &entry) {
        if (now_ms - entry.second.lastActivityMs <= cfg.idleTimeoutMs)
            return false;
        net::closeFd(entry.first);
        return true;
    });
}

bool
Server::serviceHttp(int fd, HttpConn &c)
{
    if (c.out.empty()) {
        char buf[4096];
        bool eof = false;
        while (true) {
            long got = net::recvSome(fd, buf, sizeof(buf));
            if (got > 0) {
                c.lastActivityMs = nowMs();
                c.in.append(buf, static_cast<size_t>(got));
                if (c.in.size() > kMaxHttpRequestBytes)
                    return false;
                continue;
            }
            if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
                return false;
            eof = got == 0;
            break;
        }
        // The headers end at the blank line; only the request line
        // matters.  Until then keep buffering (bounded above).
        if (c.in.find("\r\n\r\n") == std::string::npos)
            return !eof;
        c.out = httpResponse(c.in.substr(0, c.in.find("\r\n")));
    }
    // Write only what the socket takes now; POLLOUT resumes the rest.
    // A blocking write here would let one scraper that stops reading
    // stall every wire session behind it.
    while (c.sent < c.out.size()) {
        long n = ::send(fd, c.out.data() + c.sent, c.out.size() - c.sent,
                        MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        c.sent += static_cast<size_t>(n);
        c.lastActivityMs = nowMs();
    }
    return false; // Connection: close
}

void
Server::serviceSession(const std::shared_ptr<Session> &s)
{
    DVP_TRACE_SPAN(session_span, "session", nullptr);
    char buf[65536];
    bool eof = false;
    while (true) {
        long got = net::recvSome(s->fd, buf, sizeof(buf));
        if (got > 0) {
            s->lastActivityMs = nowMs();
            s->in.feed(buf, static_cast<size_t>(got));
            if (got < static_cast<long>(sizeof(buf)))
                break;
            continue;
        }
        if (got == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeSession(s);
        return;
    }

    net::Frame f;
    while (!s->dead.load(std::memory_order_relaxed) && s->in.next(f))
        handleFrame(s, f);

    if (s->in.error()) {
        DVP_COUNTER_INC("dvp_server_protocol_errors_total");
        s->writeError(net::ErrorCode::Protocol, s->in.errorDetail());
        closeSession(s);
        return;
    }
    if (eof || s->dead.load(std::memory_order_relaxed))
        closeSession(s);
}

void
Server::handleFrame(const std::shared_ptr<Session> &s,
                    const net::Frame &f)
{
    switch (f.type) {
      case net::FrameType::Hello: {
        net::HelloBody hello;
        if (!decodeHello(f.payload, hello)) {
            s->writeError(net::ErrorCode::Protocol,
                          "malformed HELLO payload");
            closeSession(s);
            return;
        }
        if (hello.wireVersion < net::kFeatureLevel) {
            s->writeError(net::ErrorCode::Protocol,
                          "unsupported wire version " +
                              std::to_string(hello.wireVersion));
            closeSession(s);
            return;
        }
        s->helloDone = true;
        net::HelloOkBody ok;
        ok.serverName = kServerName;
        ok.sessionId = s->id;
        s->writeFrame(net::FrameType::HelloOk, encodeHelloOk(ok));
        return;
      }

      case net::FrameType::Query: {
        if (!s->helloDone) {
            s->writeError(net::ErrorCode::Protocol,
                          "QUERY before HELLO");
            closeSession(s);
            return;
        }
        net::QueryBody q;
        if (!decodeQuery(f.payload, q)) {
            s->writeError(net::ErrorCode::Protocol,
                          "malformed QUERY payload");
            closeSession(s);
            return;
        }
        if (draining_.load(std::memory_order_relaxed)) {
            DVP_COUNTER_INC("dvp_server_rejects_total");
            s->writeError(net::ErrorCode::ShuttingDown,
                          "server is draining");
            return;
        }
        if (inflight_.load(std::memory_order_acquire) >=
            cfg.maxInflight) {
            DVP_COUNTER_INC("dvp_server_rejects_total");
            s->writeError(net::ErrorCode::ServerBusy,
                          "admission queue full (max-inflight " +
                              std::to_string(cfg.maxInflight) + ")");
            return;
        }
        inflight_.fetch_add(1, std::memory_order_acq_rel);
        DVP_COUNTER_INC("dvp_server_requests_total");
        {
            std::lock_guard<std::mutex> lock(queue_mu);
            queue.push_back(Task{s, std::move(q.sql), nowNs(),
                                 q.hasTraceId, q.traceId});
            DVP_GAUGE_SET("dvp_server_queue_depth",
                          static_cast<int64_t>(queue.size()));
        }
        queue_cv.notify_one();
        return;
      }

      case net::FrameType::Stats: {
        if (!s->helloDone) {
            s->writeError(net::ErrorCode::Protocol,
                          "STATS before HELLO");
            closeSession(s);
            return;
        }
        s->writeFrame(net::FrameType::StatsResult,
                      encodeStats(buildStats()));
        return;
      }

      case net::FrameType::Close:
        closeSession(s);
        return;

      default:
        s->writeError(net::ErrorCode::Protocol,
                      std::string("unexpected frame ") +
                          net::frameTypeName(f.type));
        closeSession(s);
        return;
    }
}

net::StatsBody
Server::buildStats()
{
    // Every registry counter and gauge, "dvp_" stripped: the same
    // values /metrics prints, so the two surfaces cannot disagree.
    // Histograms stay on /metrics.
    net::StatsBody body;
    obs::Registry::global().forEach(
        [&](const std::string &name, const auto &metric) {
            using M = std::decay_t<decltype(metric)>;
            if constexpr (!std::is_same_v<M, obs::Histogram>)
                if (name.rfind("dvp_", 0) == 0)
                    body.entries.emplace_back(
                        name.substr(4),
                        static_cast<uint64_t>(metric.value()));
        });

    // What is not a metric: single-owner values read where they live.
    body.entries.emplace_back("inflight", inflight());
    engine->read([&](const engine::Database &db) {
        // One cut under the engine lock: "docs" counts everything a
        // query started now would see.
        body.entries.emplace_back("docs", db.docCount());
        body.entries.emplace_back("layout_epoch", db.epoch());
    });
    if (durability::Manager *dur = engine->durability()) {
        body.entries.emplace_back("wal_appended_lsn",
                                  dur->wal()->appendedLsn());
        body.entries.emplace_back("wal_durable_lsn",
                                  dur->wal()->durableLsn());
    }

    // Adaptive-decision audit: ring occupancy plus the most recent
    // record, flattened into counters (costs scaled to milli-units to
    // fit the u64 schema).
    std::vector<adaptive::AuditRecord> trail = engine->auditTrail();
    body.entries.emplace_back("audit_records", trail.size());
    if (!trail.empty()) {
        const adaptive::AuditRecord &last = trail.back();
        body.entries.emplace_back("audit_last_seq", last.seq);
        body.entries.emplace_back("audit_last_tables", last.tables);
        body.entries.emplace_back("audit_last_iterations",
                                  last.iterations);
        body.entries.emplace_back("audit_last_moves", last.moves);
        body.entries.emplace_back(
            "audit_last_initial_cost_milli",
            static_cast<uint64_t>(last.initialCost * 1000.0));
        body.entries.emplace_back(
            "audit_last_final_cost_milli",
            static_cast<uint64_t>(last.finalCost * 1000.0));
        body.entries.emplace_back("audit_last_layout_fingerprint",
                                  last.layoutFingerprint);
        body.entries.emplace_back("audit_last_partitioner_ns",
                                  last.partitionerNs);
        body.entries.emplace_back("audit_last_build_ns", last.buildNs);
        body.entries.emplace_back("audit_last_swap_ns", last.swapNs);
        body.entries.emplace_back("audit_last_docs_caught_up",
                                  last.docsCaughtUp);
        body.entries.emplace_back("audit_last_delta_folded",
                                  last.deltaFolded);
    }
    return body;
}

void
Server::logSlowQuery(const Task &task, const sql::RunResult &r,
                     uint64_t layoutEpoch)
{
    std::string line = "{\"statement\":\"" + json::escape(task.sql) +
                       "\"";
    if (task.hasTraceId) {
        char id[32];
        std::snprintf(id, sizeof(id), "%016" PRIx64, task.traceId);
        line += std::string(",\"trace_id\":\"") + id + "\"";
    }
    line += ",\"exec_ns\":" +
            std::to_string(static_cast<uint64_t>(r.seconds * 1e9));
    line += ",\"layout_epoch\":" + std::to_string(layoutEpoch);
    if (r.hasStats) {
        line += ",\"stats\":{";
        bool first = true;
        for (const auto &[key, value] : r.stats.summary()) {
            if (!first)
                line += ",";
            first = false;
            line += "\"" + key + "\":" + std::to_string(value);
        }
        line += "}";
    }
    if (r.load) {
        line += ",\"load\":{\"index_ns\":" +
                std::to_string(r.load->indexNs) +
                ",\"flatten_ns\":" + std::to_string(r.load->walkNs) +
                ",\"encode_ns\":" + std::to_string(r.load->encodeNs) +
                ",\"docs\":" + std::to_string(r.load->docs) +
                ",\"bytes\":" + std::to_string(r.load->bytes) + "}";
    }
    line += "}\n";

    std::lock_guard<std::mutex> lock(slow_mu);
    std::ofstream out(cfg.slowLogPath, std::ios::app);
    if (out)
        out << line;
}

// ---------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------

void
Server::workerLoop()
{
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(queue_mu);
            queue_cv.wait(lock, [this] {
                return workers_quit || !queue.empty();
            });
            if (queue.empty()) {
                if (workers_quit)
                    return;
                continue;
            }
            task = std::move(queue.front());
            queue.pop_front();
            DVP_GAUGE_SET("dvp_server_queue_depth",
                          static_cast<int64_t>(queue.size()));
        }
        executeTask(task);
    }
}

void
Server::executeTask(Task &task)
{
    {
        std::function<void()> hook;
        {
            std::lock_guard<std::mutex> lock(hook_mu);
            hook = execute_hook;
        }
        if (hook)
            hook();
    }

    sql::RunResult r;
    {
        // Client-propagated trace id, stamped into the span so a wire
        // request can be matched against the server-side trace dump.
        char trace_detail[32];
        const char *detail = nullptr;
        if (task.hasTraceId) {
            std::snprintf(trace_detail, sizeof(trace_detail),
                          "trace=%016" PRIx64, task.traceId);
            detail = trace_detail;
        }
        DVP_TRACE_SPAN(exec_span, "execute", detail);
        r = sql::runStatement(*engine, task.sql, cfg.allowLoad,
                              cfg.allowInsert);
    }

    // Encode stage: digest + row encode + frame build, for errors too,
    // so every answered statement observes each stage exactly once.
    uint64_t t_encode = nowNs();
    std::string frame;
    auto error = [&frame](net::ErrorCode code, const std::string &msg) {
        frame = net::encodeFrame(net::FrameType::Error,
                                 net::encodeError({code, msg}));
    };
    if (!r.ok) {
        net::ErrorCode code = net::ErrorCode::Exec;
        if (r.errorKind == sql::RunResult::Error::Parse)
            code = net::ErrorCode::Parse;
        else if (r.errorKind == sql::RunResult::Error::Unsupported)
            code = net::ErrorCode::Unsupported;
        else if (r.errorKind == sql::RunResult::Error::ReadOnly)
            code = net::ErrorCode::ReadOnly;
        error(code, r.error);
    } else {
        net::ResultBody body;
        body.execNs = static_cast<uint64_t>(r.seconds * 1e9);
        // Echo the trace id and ship the per-operator summary.
        body.hasTraceId = task.hasTraceId;
        body.traceId = task.traceId;
        if (r.hasStats)
            body.opStats = r.stats.summary();
        if (r.kind == sql::RunResult::Kind::Message) {
            body.kind = net::ResultBody::Kind::Message;
            body.message = r.message;
            frame = net::ResultWriter(body, 0).finish(0);
        } else {
            body.oids = std::move(r.rows.oids);
            body.checksum = r.rows.checksum;
            // Headers and string cells resolve against the catalog and
            // dictionary a concurrent INSERT grows.
            bool fits = engine->read([&](const engine::Database &db) {
                body.columns = sql::resultColumns(db.data(), r.query);
                return encodeRowResult(body, r.rows, db.data(),
                                       net::kMaxPayload, frame);
            });
            if (!fits)
                error(net::ErrorCode::ResultTooLarge,
                      "result exceeds the " +
                          std::to_string(net::kMaxPayload) +
                          "-byte frame payload limit (" +
                          std::to_string(r.rows.rowCount()) + " rows)");
        }
    }
    uint64_t t_send = nowNs();
    DVP_HISTOGRAM_OBSERVE("dvp_request_stage_ns{stage=\"encode\"}",
                          t_send - t_encode);
    task.session->send(frame);
    DVP_HISTOGRAM_OBSERVE("dvp_request_stage_ns{stage=\"send\"}",
                          nowNs() - t_send);

    if (r.ok && cfg.slowMs > 0 && !cfg.slowLogPath.empty() &&
        r.seconds * 1000.0 >= static_cast<double>(cfg.slowMs)) {
        DVP_COUNTER_INC("dvp_server_slow_queries_total");
        logSlowQuery(task, r, r.stats.planEpoch);
    }

    DVP_HISTOGRAM_OBSERVE("dvp_server_request_ns",
                          nowNs() - task.enqueuedNs);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (draining_.load(std::memory_order_relaxed))
        wake(); // let the event loop notice drain completion promptly
    task.session.reset();
}

} // namespace dvp::server

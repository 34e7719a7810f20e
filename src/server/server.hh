/**
 * @file
 * The network query-serving front end: a poll()-based TCP server that
 * speaks the src/net wire protocol and executes SQL through the shared
 * sql::runStatement dispatch over a live AdaptiveEngine.
 *
 * Threading model (DESIGN.md §13):
 *
 *  - One event-loop thread owns the listening socket, the wake pipe,
 *    and every session's read side.  It accepts connections, assembles
 *    frames, answers cheap frames (HELLO, STATS, CLOSE) inline, and
 *    admits QUERY frames into a bounded queue.
 *  - With Config::httpPort set, the same loop also owns an HTTP
 *    listener and its scrape connections (GET /metrics, GET /healthz,
 *    DESIGN.md §15).  It renders each response inline and writes it
 *    only as far as the socket takes it, finishing on POLLOUT, so a
 *    scraper that stops reading never blocks a wire session.
 *  - A pool of worker threads pops admitted statements, executes them
 *    through AdaptiveEngine::execute (morsel-parallel, plan-cached,
 *    under the engine's shared lock — a background repartition swaps
 *    the layout between two statements of an open connection, never
 *    inside one), serializes the result, and writes the response
 *    frame.
 *    Each session's write side is guarded by a per-session mutex so a
 *    worker response can never interleave with an event-loop reject.
 *
 * Backpressure: QUERY frames past the Config::maxInflight watermark
 * (queued + executing) are rejected immediately with a typed
 * SERVER_BUSY error; the connection stays usable.  The server adds no
 * statement lock of its own: the engine's reader/writer lock orders
 * queries against INSERT and LOAD batches (DESIGN.md §16).
 *
 * Graceful drain: requestStop() (directly, via stop(), or from the
 * SIGINT/SIGTERM handlers) stops accepting, answers new QUERY frames
 * with SHUTTING_DOWN, lets every admitted statement finish and deliver
 * its response, then shuts the loop and workers down.  stop() blocks
 * until the drain completes.
 *
 * Sessions and scrape connections are also reaped when idle longer
 * than Config::idleTimeoutMs (covers stalled half-written frames and
 * requests: any byte received, or sent to a scraper, counts as
 * activity).  The drain closes the HTTP listener with the wire one.
 */

#ifndef DVP_SERVER_SERVER_HH
#define DVP_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "net/wire.hh"
#include "sql/run.hh"

namespace dvp::server
{

/** Server configuration. */
struct Config
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral (read back via port())

    /** Worker threads executing admitted statements. */
    size_t workers = 2;

    /** Admission watermark: queued + executing statements. */
    size_t maxInflight = 64;

    /** Close sessions idle longer than this; 0 disables. */
    int idleTimeoutMs = 0;

    /**
     * Serve LOAD DATA from server-local JSON-lines paths.  Off by
     * default: a remote client naming server filesystem paths is a
     * deployment decision, not a protocol default.
     */
    bool allowLoad = false;

    /**
     * Accept INSERT statements.  Off by default for the same reason as
     * allowLoad: whether remote clients may write is a deployment
     * decision.  When off, INSERT answers with a typed READ_ONLY
     * error and the engine is never touched.
     */
    bool allowInsert = false;

    /**
     * Slow-query log: a statement slower than slowMs appends one
     * NDJSON record (statement, trace id, operator stats, layout
     * epoch) to slowLogPath.  0 or an empty path disables it.
     */
    uint32_t slowMs = 0;
    std::string slowLogPath;

    /**
     * Serve GET /metrics and GET /healthz over HTTP/1.1 on 127.0.0.1 at
     * this port (0 = ephemeral, read back via httpPort()).  Unset: no
     * HTTP listener.
     */
    std::optional<uint16_t> httpPort;
};

/**
 * The RESULT frame of a row result, with every row written straight
 * from @p rs's flat slots into a net::ResultWriter: string ids resolve
 * through @p data's dictionary, and no per-cell object is built.  A
 * served @p data needs the engine lock held shared around the call
 * (AdaptiveEngine::read), since ingest grows the dictionary.  @p meta
 * supplies every field but the rows and the digest, which is
 * rs.digest(), taken only once the rows fit.
 *
 * Returns false as soon as the payload passes @p maxBytes (the
 * server passes net::kMaxPayload; @p out is then unspecified), so an
 * oversized result costs at most one row past the cap to discover.
 */
bool encodeRowResult(const net::ResultBody &meta,
                     const engine::ResultSet &rs,
                     const engine::DataSet &data, size_t maxBytes,
                     std::string &out);

/** The server.  One instance serves one AdaptiveEngine. */
class Server
{
  public:
    explicit Server(adaptive::AdaptiveEngine &engine, Config cfg = {});
    ~Server(); ///< stop()s if still running

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start the loop + workers.  "" on success. */
    std::string start();

    /** Bound port (after start(); useful with Config::port = 0). */
    uint16_t port() const { return port_; }

    /** Bound HTTP port after start(); 0 without Config::httpPort. */
    uint16_t httpPort() const { return http_port_; }

    /** True between a successful start() and the end of stop(). */
    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /**
     * Begin a graceful drain without blocking.  Safe from any thread;
     * also the only thing the signal handlers do (one write to the
     * wake pipe — async-signal-safe).
     */
    void requestStop();

    /** Drain and join.  Idempotent; blocks until fully stopped. */
    void stop();

    /**
     * True once the event loop has finished draining (all admitted
     * statements answered, sessions shut down).  Lets a daemon wait
     * for a signal-triggered drain before calling stop().
     */
    bool drained() const
    {
        return loop_done_.load(std::memory_order_acquire);
    }

    /** statements queued + executing right now (tests, admission). */
    size_t inflight() const
    {
        return inflight_.load(std::memory_order_acquire);
    }

    /**
     * Test hook, called by a worker thread after dequeuing a statement
     * and before executing it.  Lets tests hold statements in flight
     * deterministically (backpressure and drain assertions).
     */
    void setExecuteHook(std::function<void()> hook);

    /**
     * Route SIGINT/SIGTERM to @p s->requestStop() (nullptr restores
     * SIG_DFL).  One server per process can be the signal target.
     */
    static void installSignalHandlers(Server *s);

  private:
    struct Session;
    struct Task
    {
        std::shared_ptr<Session> session;
        std::string sql;
        uint64_t enqueuedNs = 0;
        bool hasTraceId = false; ///< client sent a trace-id TLV
        uint64_t traceId = 0;
    };

    /** A scrape connection: the request until its blank line, then
     * the response until the socket has taken all of it. */
    struct HttpConn
    {
        std::string in;
        std::string out;
        size_t sent = 0;
        int64_t lastActivityMs = 0;
    };

    void eventLoop();
    void workerLoop();
    void wake();

    void acceptAll(int listener);
    bool serviceHttp(int fd, HttpConn &c); ///< false = close it
    void serviceSession(const std::shared_ptr<Session> &s);
    void handleFrame(const std::shared_ptr<Session> &s,
                     const net::Frame &f);
    void closeSession(const std::shared_ptr<Session> &s);
    void reapIdle(int64_t now_ms);

    void executeTask(Task &task);
    net::StatsBody buildStats();
    void logSlowQuery(const Task &task, const sql::RunResult &r,
                      uint64_t layoutEpoch);

    adaptive::AdaptiveEngine *engine;
    Config cfg;

    int listen_fd = -1;
    uint16_t port_ = 0;
    int http_fd = -1;
    uint16_t http_port_ = 0;
    int wake_rd = -1, wake_wr = -1;

    std::thread loop_thread;
    std::vector<std::thread> worker_threads;

    /** Sessions keyed by fd; touched only by the event loop. */
    std::unordered_map<int, std::shared_ptr<Session>> sessions;
    uint64_t next_session_id = 1;

    /** Scrape connections keyed by fd; touched only by the event loop.
     * They count as no session: no dvp_server_* metric sees them. */
    std::unordered_map<int, HttpConn> http_conns;

    std::mutex queue_mu;
    std::condition_variable queue_cv;
    std::deque<Task> queue;
    bool workers_quit = false;

    std::atomic<size_t> inflight_{0};
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> loop_done_{false};

    std::mutex hook_mu;
    std::function<void()> execute_hook;

    std::mutex slow_mu; ///< serializes slow-query log appends

    std::mutex stop_mu; ///< serializes stop() callers
};

} // namespace dvp::server

#endif // DVP_SERVER_SERVER_HH

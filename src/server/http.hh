/**
 * @file
 * A minimal HTTP/1.1 scrape endpoint for the observability layer:
 *
 *   GET /metrics  -> Prometheus text exposition of the global Registry
 *   GET /healthz  -> 200 "ok" while the server is running
 *
 * Built in the same idiom as the wire-protocol server (src/server):
 * one poll()-based event-loop thread owns the listener, a self-pipe
 * for wakeups, and every connection's read side.  Requests are tiny
 * (one GET line), responses are rendered inline on the loop thread —
 * exportPrometheus only snapshots the registry under its own locks, so
 * a scrape never touches query-path state.  Connections are closed
 * after each response (Connection: close); Prometheus re-connects per
 * scrape anyway, and it keeps the loop free of keep-alive bookkeeping.
 */

#ifndef DVP_SERVER_HTTP_HH
#define DVP_SERVER_HTTP_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>

namespace dvp::server
{

/** HTTP endpoint configuration. */
struct HttpConfig
{
    std::string host = "127.0.0.1";
    uint16_t port = 0; ///< 0 = ephemeral (read back via port())
};

/** The scrape endpoint.  start() spawns one event-loop thread. */
class HttpServer
{
  public:
    explicit HttpServer(HttpConfig cfg = {});
    ~HttpServer(); ///< stop()s if still running

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind, listen, and start the loop.  "" on success. */
    std::string start();

    /** Bound port (after start(); useful with port = 0). */
    uint16_t port() const { return port_; }

    /** True between a successful start() and the end of stop(). */
    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /** Shut the loop down and join.  Idempotent. */
    void stop();

    /** Requests answered so far (tests). */
    uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::string buf; ///< request bytes until the blank line
    };

    void eventLoop();
    void acceptOne();
    bool serviceConn(Conn &c); ///< false = close the connection
    std::string respond(const std::string &request_line);

    HttpConfig cfg;
    int listen_fd = -1;
    uint16_t port_ = 0;
    int wake_rd = -1, wake_wr = -1;

    std::thread loop_thread;
    std::unordered_map<int, Conn> conns; ///< loop thread only
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<uint64_t> served_{0};
};

} // namespace dvp::server

#endif // DVP_SERVER_HTTP_HH

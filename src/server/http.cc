#include "server/http.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "net/socket.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace dvp::server
{

namespace
{

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string
httpResponse(int code, const char *status, const std::string &type,
             const std::string &body)
{
    std::string head = "HTTP/1.1 " + std::to_string(code) + " " +
                       status + "\r\n";
    head += "Content-Type: " + type + "\r\n";
    head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    head += "Connection: close\r\n\r\n";
    return head + body;
}

/** Request bodies larger than this are protocol abuse; drop them. */
constexpr size_t kMaxRequestBytes = 8192;

/** poll() tick in ms, bounding shutdown latency. */
constexpr int kTickMs = 50;

} // namespace

HttpServer::HttpServer(HttpConfig cfg) : cfg(std::move(cfg)) {}

HttpServer::~HttpServer()
{
    stop();
}

std::string
HttpServer::start()
{
    if (running())
        return "http server already running";

    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return std::string("pipe: ") + std::strerror(errno);
    wake_rd = pipefd[0];
    wake_wr = pipefd[1];
    setNonBlocking(wake_rd);
    setNonBlocking(wake_wr);

    std::string err;
    listen_fd = net::listenTcp(cfg.host, cfg.port, &port_, &err);
    if (listen_fd < 0) {
        net::closeFd(wake_rd);
        net::closeFd(wake_wr);
        wake_rd = wake_wr = -1;
        return err;
    }
    setNonBlocking(listen_fd);

    stop_requested_.store(false);
    running_.store(true, std::memory_order_release);
    loop_thread = std::thread([this] { eventLoop(); });

    inform("http: serving /metrics and /healthz on %s:%u",
           cfg.host.c_str(), unsigned(port_));
    return "";
}

void
HttpServer::stop()
{
    if (!loop_thread.joinable())
        return;
    stop_requested_.store(true, std::memory_order_release);
    if (wake_wr >= 0) {
        char b = 'w';
        [[maybe_unused]] long rc = ::write(wake_wr, &b, 1);
    }
    loop_thread.join();

    for (auto &[fd, c] : conns)
        net::closeFd(fd);
    conns.clear();
    net::closeFd(listen_fd);
    listen_fd = -1;
    net::closeFd(wake_rd);
    net::closeFd(wake_wr);
    wake_rd = wake_wr = -1;
    running_.store(false, std::memory_order_release);
}

void
HttpServer::eventLoop()
{
    std::vector<pollfd> pfds;
    while (!stop_requested_.load(std::memory_order_acquire)) {
        pfds.clear();
        pfds.push_back({wake_rd, POLLIN, 0});
        pfds.push_back({listen_fd, POLLIN, 0});
        for (auto &[fd, c] : conns)
            pfds.push_back({fd, POLLIN, 0});

        int rc = ::poll(pfds.data(), pfds.size(), kTickMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("http poll: %s", std::strerror(errno));
            break;
        }
        std::vector<int> closing;
        for (const pollfd &p : pfds) {
            if (p.revents == 0)
                continue;
            if (p.fd == wake_rd) {
                char buf[64];
                while (::read(wake_rd, buf, sizeof(buf)) > 0) {
                }
            } else if (p.fd == listen_fd) {
                acceptOne();
            } else {
                auto it = conns.find(p.fd);
                if (it == conns.end())
                    continue;
                if ((p.revents & (POLLERR | POLLNVAL)) ||
                    !serviceConn(it->second))
                    closing.push_back(p.fd);
            }
        }
        for (int fd : closing) {
            net::closeFd(fd);
            conns.erase(fd);
        }
    }
}

void
HttpServer::acceptOne()
{
    while (true) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        setNonBlocking(fd);
        Conn c;
        c.fd = fd;
        conns.emplace(fd, std::move(c));
    }
}

bool
HttpServer::serviceConn(Conn &c)
{
    char buf[8192];
    while (true) {
        long got = net::recvSome(c.fd, buf, sizeof(buf));
        if (got > 0) {
            c.buf.append(buf, static_cast<size_t>(got));
            if (c.buf.size() > kMaxRequestBytes)
                return false;
            if (got < static_cast<long>(sizeof(buf)))
                break;
            continue;
        }
        if (got == 0)
            return false; // EOF before a full request
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        return false;
    }

    // Headers complete once the blank line arrives; until then keep
    // buffering (bounded above).
    size_t end = c.buf.find("\r\n\r\n");
    if (end == std::string::npos)
        return true;

    size_t eol = c.buf.find("\r\n");
    std::string response = respond(c.buf.substr(0, eol));
    served_.fetch_add(1, std::memory_order_relaxed);
    net::sendAll(c.fd, response.data(), response.size());
    return false; // Connection: close
}

std::string
HttpServer::respond(const std::string &request_line)
{
    // "GET <path> HTTP/1.x" — anything else is a 400/405/404.
    size_t sp1 = request_line.find(' ');
    size_t sp2 =
        sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
        return httpResponse(400, "Bad Request", "text/plain",
                            "bad request\n");
    std::string method = request_line.substr(0, sp1);
    std::string path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (method != "GET")
        return httpResponse(405, "Method Not Allowed", "text/plain",
                            "only GET is supported\n");

    if (path == "/metrics") {
        std::string body =
            obs::exportPrometheus(obs::Registry::global());
        return httpResponse(200, "OK",
                            "text/plain; version=0.0.4; charset=utf-8",
                            body);
    }
    if (path == "/healthz")
        return httpResponse(200, "OK", "text/plain", "ok\n");
    return httpResponse(404, "Not Found", "text/plain",
                        "unknown path; try /metrics or /healthz\n");
}

} // namespace dvp::server

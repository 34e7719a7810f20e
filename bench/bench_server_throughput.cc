/**
 * @file
 * Load generator for the network query server (DESIGN.md §13).
 *
 * Starts an in-process dvp::server::Server over a NoBench-seeded
 * AdaptiveEngine, then drives it over real TCP sockets with a pool of
 * dvp::client::Client connections cycling through the paper's Q1-Q11
 * statement mix:
 *
 *  - closed loop (--mode closed): every connection issues its next
 *    statement the moment the previous response arrives; measures the
 *    server's saturated throughput.
 *  - open loop (--mode open): statements are issued on a fixed
 *    schedule (--rate total QPS across connections) and latency is
 *    measured from the *scheduled* send time, so queueing delay under
 *    overload is visible instead of being coordinated away.
 *
 * Reports QPS, rows/s, and p50/p95/p99 latency as a human table and,
 * with --json, as NDJSON metric records.
 *
 * --obs-overhead runs the closed loop twice against one server —
 * first with the full observability surface off (no trace ids, span
 * tracer disabled), then with it on (trace-id TLVs on every query,
 * tracer enabled) — and asserts the traced run keeps
 * within --max-overhead-pct (default 5%) of the untraced QPS.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "client/client.hh"
#include "harness.hh"
#include "obs/trace.hh"
#include "server/server.hh"

using namespace dvp;

namespace
{

/** The paper's query mix, as SQL (Q12/LOAD excluded: bulk ingest is
 * bench_q12_insert's subject and would grow the data set mid-run). */
const char *kQueryMix[] = {
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
constexpr size_t kMixSize = sizeof(kQueryMix) / sizeof(kQueryMix[0]);

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct WorkerResult
{
    std::vector<uint64_t> latenciesNs;
    uint64_t ok = 0;
    uint64_t rows = 0;
    uint64_t busy = 0;
    uint64_t errors = 0;
};

/** How the load generator's connections exercise observability. */
enum class ClientObs
{
    Default, ///< no trace ids
    Traced,  ///< a distinct trace id per connection
};

/** One timed load: aggregated worker results + wall seconds. */
struct LoadResult
{
    WorkerResult total;
    double elapsed = 0;
};

/**
 * Drive the server at @p port with @p connections clients for
 * @p duration seconds (closed or open loop) and aggregate.
 */
LoadResult
driveLoad(uint16_t port, size_t connections, double duration,
          const std::string &mode, double rate, ClientObs obs)
{
    std::atomic<uint64_t> next_query{0};
    std::atomic<bool> stop{false};
    std::vector<WorkerResult> results(connections);
    std::vector<std::thread> workers;
    const uint64_t t0 = nowNs();
    const uint64_t deadline =
        t0 + static_cast<uint64_t>(duration * 1e9);
    const double per_conn_interval_ns =
        rate > 0 ? 1e9 * connections / rate : 0;

    for (size_t w = 0; w < connections; ++w) {
        workers.emplace_back([&, w] {
            WorkerResult &res = results[w];
            client::Client c;
            if (obs == ClientObs::Traced)
                c.setTraceId(0x7ace000000000000ull + w + 1);
            if (!c.connect("127.0.0.1", port, "bench").empty()) {
                ++res.errors;
                return;
            }
            // Open loop: stagger connection start times across one
            // interval so the aggregate schedule is evenly spaced.
            uint64_t scheduled =
                t0 + static_cast<uint64_t>(per_conn_interval_ns *
                                           (w + 1) / connections);
            while (!stop.load(std::memory_order_relaxed)) {
                uint64_t sendAt = nowNs();
                if (mode == "open") {
                    if (scheduled > deadline)
                        break;
                    while (nowNs() < scheduled &&
                           !stop.load(std::memory_order_relaxed))
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                    sendAt = scheduled; // latency includes queue delay
                    scheduled += static_cast<uint64_t>(
                        per_conn_interval_ns);
                } else if (sendAt >= deadline) {
                    break;
                }
                size_t qi = next_query.fetch_add(
                                1, std::memory_order_relaxed) %
                            kMixSize;
                client::Result r = c.query(kQueryMix[qi]);
                uint64_t done = nowNs();
                if (r.ok) {
                    ++res.ok;
                    res.rows += r.rows.size();
                    res.latenciesNs.push_back(done - sendAt);
                } else if (r.busy()) {
                    ++res.busy;
                } else {
                    ++res.errors;
                    if (!c.connected())
                        break;
                }
            }
            c.close();
        });
    }

    while (nowNs() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : workers)
        t.join();

    LoadResult out;
    out.elapsed = (nowNs() - t0) / 1e9;
    for (const WorkerResult &r : results) {
        out.total.ok += r.ok;
        out.total.rows += r.rows;
        out.total.busy += r.busy;
        out.total.errors += r.errors;
        out.total.latenciesNs.insert(out.total.latenciesNs.end(),
                                     r.latenciesNs.begin(),
                                     r.latenciesNs.end());
    }
    std::sort(out.total.latenciesNs.begin(),
              out.total.latenciesNs.end());
    return out;
}

double
percentileMs(const std::vector<uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[idx] / 1e6;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--docs N] [--seed S] [--connections C] "
        "[--duration SECONDS] [--mode closed|open] [--rate QPS] "
        "[--workers N] [--max-inflight N] [--json FILE] "
        "[--obs-overhead] [--max-overhead-pct P]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt;
    opt.docs = 20000;
    size_t connections = 4;
    double duration = 5.0;
    std::string mode = "closed";
    double rate = 200.0;
    bool obs_overhead = false;
    double max_overhead_pct = 5.0;
    server::Config scfg;
    scfg.workers = 2;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                std::exit(usage(argv[0]));
            return argv[++i];
        };
        if (a == "--docs")
            opt.docs = std::strtoull(next(), nullptr, 10);
        else if (a == "--seed")
            opt.seed = std::strtoull(next(), nullptr, 10);
        else if (a == "--connections")
            connections = std::strtoull(next(), nullptr, 10);
        else if (a == "--duration")
            duration = std::strtod(next(), nullptr);
        else if (a == "--mode")
            mode = next();
        else if (a == "--rate")
            rate = std::strtod(next(), nullptr);
        else if (a == "--workers")
            scfg.workers = std::strtoull(next(), nullptr, 10);
        else if (a == "--max-inflight")
            scfg.maxInflight = std::strtoull(next(), nullptr, 10);
        else if (a == "--json")
            opt.jsonPath = next();
        else if (a == "--obs-overhead")
            obs_overhead = true;
        else if (a == "--max-overhead-pct")
            max_overhead_pct = std::strtod(next(), nullptr);
        else
            return usage(argv[0]);
    }
    if (mode != "closed" && mode != "open")
        return usage(argv[0]);
    if (connections == 0)
        connections = 1;
    opt.threads = scfg.workers;

    // Seed the engine and start the server on an ephemeral port.
    engine::DataSet data;
    nobench::Config ncfg = opt.nobenchConfig();
    {
        Rng rng{opt.seed};
        Timer t;
        for (uint64_t i = 0; i < opt.docs; ++i)
            data.addObject(nobench::generateDoc(
                ncfg, rng, static_cast<int64_t>(i)));
        std::printf("generated %llu docs in %.1f ms\n",
                    static_cast<unsigned long long>(opt.docs),
                    t.milliseconds());
    }
    adaptive::Params params;
    params.background = true;
    adaptive::AdaptiveEngine engine(data, {}, params);
    server::Server server(engine, scfg);
    std::string err = server.start();
    if (!err.empty()) {
        std::fprintf(stderr, "server start failed: %s\n", err.c_str());
        return 1;
    }
    uint16_t port = server.port();

    if (obs_overhead) {
        // Twin closed-loop runs against one warmed server: the full
        // observability surface off, then on.  Off first so the traced
        // run inherits (not pays for) warmed caches.
        driveLoad(port, connections, std::min(duration, 1.0), "closed",
                  rate, ClientObs::Default); // warmup
        obs::Tracer::global().disable();
        LoadResult off = driveLoad(port, connections, duration,
                                   "closed", rate, ClientObs::Default);
        obs::Tracer::global().enable();
        LoadResult on = driveLoad(port, connections, duration,
                                  "closed", rate, ClientObs::Traced);
        obs::Tracer::global().disable();
        server.stop();

        double qps_off = off.total.ok / off.elapsed;
        double qps_on = on.total.ok / on.elapsed;
        double overhead_pct =
            qps_off > 0 ? (qps_off - qps_on) / qps_off * 100.0 : 0.0;

        TablePrinter table({"run", "ok", "err", "QPS", "p95 ms"});
        char buf[32];
        auto addRun = [&](const char *name, const LoadResult &lr,
                          double qps) {
            std::vector<std::string> row{
                name, std::to_string(lr.total.ok),
                std::to_string(lr.total.errors)};
            std::snprintf(buf, sizeof(buf), "%.1f", qps);
            row.push_back(buf);
            std::snprintf(buf, sizeof(buf), "%.3f",
                          percentileMs(lr.total.latenciesNs, 0.95));
            row.push_back(buf);
            table.addRow(std::move(row));
        };
        addRun("tracing off", off, qps_off);
        addRun("tracing on", on, qps_on);
        bench::emit(table, "observability overhead (closed loop)",
                    opt.csv);
        std::printf("overhead: %.2f%% (limit %.2f%%)\n", overhead_pct,
                    max_overhead_pct);

        bench::JsonLog log(opt, "server_throughput");
        log.value("server", "obs_overhead", "qps_off", qps_off, "1/s");
        log.value("server", "obs_overhead", "qps_on", qps_on, "1/s");
        log.value("server", "obs_overhead", "overhead_pct",
                  overhead_pct, "%");

        if (off.total.errors + on.total.errors > 0)
            return 1;
        if (overhead_pct > max_overhead_pct) {
            std::fprintf(stderr,
                         "FAIL: observability overhead %.2f%% exceeds "
                         "%.2f%%\n",
                         overhead_pct, max_overhead_pct);
            return 1;
        }
        return 0;
    }

    LoadResult load =
        driveLoad(port, connections, duration, mode, rate,
                  ClientObs::Default);
    server.stop();
    WorkerResult &total = load.total;
    double elapsed = load.elapsed;
    double qps = total.ok / elapsed;
    double rows_per_s = total.rows / elapsed;
    double p50 = percentileMs(total.latenciesNs, 0.50);
    double p95 = percentileMs(total.latenciesNs, 0.95);
    double p99 = percentileMs(total.latenciesNs, 0.99);

    TablePrinter table({"mode", "conns", "ok", "busy", "err", "QPS",
                        "rows/s", "p50 ms", "p95 ms", "p99 ms"});
    char buf[32];
    std::vector<std::string> row{mode, std::to_string(connections),
                                 std::to_string(total.ok),
                                 std::to_string(total.busy),
                                 std::to_string(total.errors)};
    auto fmt = [&](double v, const char *f) {
        std::snprintf(buf, sizeof(buf), f, v);
        row.push_back(buf);
    };
    fmt(qps, "%.1f");
    fmt(rows_per_s, "%.0f");
    fmt(p50, "%.3f");
    fmt(p95, "%.3f");
    fmt(p99, "%.3f");
    table.addRow(std::move(row));
    bench::emit(table, "server throughput (" + mode + " loop, " +
                           std::to_string(connections) +
                           " connections)",
                opt.csv);

    bench::JsonLog log(opt, "server_throughput");
    log.value("server", mode, "qps", qps, "1/s");
    log.value("server", mode, "rows_per_s", rows_per_s, "1/s");
    log.value("server", mode, "p50_ms", p50, "ms");
    log.value("server", mode, "p95_ms", p95, "ms");
    log.value("server", mode, "p99_ms", p99, "ms");
    log.value("server", mode, "busy_rejects",
              static_cast<double>(total.busy), "count");
    log.value("server", mode, "errors",
              static_cast<double>(total.errors), "count");

    return total.errors == 0 ? 0 : 1;
}

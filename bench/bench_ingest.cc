/**
 * @file
 * Live-ingest load generator (DESIGN.md §16, EXPERIMENTS.md E14).
 *
 * Starts an in-process dvp::server::Server (allowInsert on) over a
 * NoBench-seeded AdaptiveEngine and drives the write path over real
 * TCP sockets, in three stages:
 *
 *  1. insert throughput (closed loop): --writers connections each send
 *     INSERT statements of --batch documents back to back; reports
 *     wire-path inserts/s and how long each batch held the engine's
 *     write lock (the dvp_ingest_lock_ns histogram).
 *  2. read-only baseline (open loop): --connections reader connections
 *     cycle the paper's Q1-Q11 mix at --rate total QPS; reports QPS
 *     and p50/p95 read latency with zero writers as the reference.
 *  3. mixed read/write (open loop): the same reader schedule while
 *     writers sustain --write-rate inserts/s; reports read QPS and
 *     latency degradation next to the achieved insert rate: what the
 *     readers pay for waiting on the write lock, end to end.
 *
 * Reads are scheduled open-loop (latency includes queue delay, so
 * overload shows instead of being coordinated away); inserts in stage
 * 3 are paced the same way.  --json appends NDJSON metric records.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "client/client.hh"
#include "obs/metrics.hh"
#include "harness.hh"
#include "server/server.hh"

using namespace dvp;

namespace
{

/** The paper's query mix as SQL (Q12 is what the writers are for). */
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

/** One INSERT statement of @p batch documents; values derive from the
 * global doc counter so every document is distinct. */
std::string
insertStatement(std::atomic<uint64_t> &next_doc, size_t batch)
{
    std::string sql = "INSERT INTO nobench VALUES ";
    char tuple[96];
    for (size_t b = 0; b < batch; ++b) {
        uint64_t k =
            next_doc.fetch_add(1, std::memory_order_relaxed);
        std::snprintf(tuple, sizeof(tuple),
                      "%s('{\"wq\": %llu, \"wv\": %llu}')",
                      b ? ", " : "",
                      static_cast<unsigned long long>(k),
                      static_cast<unsigned long long>(k * 3 + 1));
        sql += tuple;
    }
    return sql;
}

struct StageResult
{
    uint64_t readsOk = 0;
    uint64_t insertsOk = 0; ///< documents, not statements
    uint64_t errors = 0;
    std::vector<uint64_t> readLatenciesNs;
    double elapsed = 0;
};

double
percentileMs(const std::vector<uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[idx] / 1e6;
}

/**
 * Run one stage: @p readers open-loop reader connections at @p rate
 * total QPS plus @p writers writer connections (closed loop when
 * @p write_rate is 0, paced otherwise), for @p duration seconds.
 */
StageResult
driveStage(uint16_t port, size_t readers, double rate, size_t writers,
           double write_rate, size_t batch, double duration,
           std::atomic<uint64_t> &next_doc)
{
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> next_query{0};
    std::vector<StageResult> results(readers + writers);
    std::vector<std::thread> threads;
    const uint64_t t0 = nowNs();
    const uint64_t deadline =
        t0 + static_cast<uint64_t>(duration * 1e9);

    const double read_interval_ns =
        rate > 0 && readers > 0 ? 1e9 * readers / rate : 0;
    for (size_t w = 0; w < readers; ++w) {
        threads.emplace_back([&, w] {
            StageResult &res = results[w];
            client::Client c;
            if (!c.connect("127.0.0.1", port, "ingest-read").empty()) {
                ++res.errors;
                return;
            }
            uint64_t scheduled =
                t0 + static_cast<uint64_t>(read_interval_ns * (w + 1) /
                                           (readers ? readers : 1));
            while (!stop.load(std::memory_order_relaxed)) {
                if (scheduled > deadline)
                    break;
                while (nowNs() < scheduled &&
                       !stop.load(std::memory_order_relaxed))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                uint64_t sendAt = scheduled; // includes queue delay
                scheduled +=
                    static_cast<uint64_t>(read_interval_ns);
                size_t qi = next_query.fetch_add(
                                1, std::memory_order_relaxed) %
                            kMixSize;
                client::Result r = c.query(kQueryMix[qi]);
                uint64_t done = nowNs();
                if (r.ok) {
                    ++res.readsOk;
                    res.readLatenciesNs.push_back(done - sendAt);
                } else {
                    ++res.errors;
                    if (!c.connected())
                        break;
                }
            }
            c.close();
        });
    }

    const double write_interval_ns =
        write_rate > 0 && writers > 0
            ? 1e9 * writers * batch / write_rate
            : 0;
    for (size_t w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
            StageResult &res = results[readers + w];
            client::Client c;
            if (!c.connect("127.0.0.1", port, "ingest-write")
                     .empty()) {
                ++res.errors;
                return;
            }
            uint64_t scheduled =
                t0 + static_cast<uint64_t>(write_interval_ns *
                                           (w + 1) /
                                           (writers ? writers : 1));
            while (!stop.load(std::memory_order_relaxed)) {
                if (write_interval_ns > 0) {
                    if (scheduled > deadline)
                        break;
                    while (nowNs() < scheduled &&
                           !stop.load(std::memory_order_relaxed))
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                    scheduled +=
                        static_cast<uint64_t>(write_interval_ns);
                } else if (nowNs() >= deadline) {
                    break;
                }
                client::Result r =
                    c.query(insertStatement(next_doc, batch));
                if (r.ok)
                    res.insertsOk += batch;
                else {
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
    for (std::thread &t : threads)
        t.join();

    StageResult out;
    out.elapsed = (nowNs() - t0) / 1e9;
    for (const StageResult &r : results) {
        out.readsOk += r.readsOk;
        out.insertsOk += r.insertsOk;
        out.errors += r.errors;
        out.readLatenciesNs.insert(out.readLatenciesNs.end(),
                                   r.readLatenciesNs.begin(),
                                   r.readLatenciesNs.end());
    }
    std::sort(out.readLatenciesNs.begin(), out.readLatenciesNs.end());
    return out;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--docs N] [--seed S] [--duration SECONDS] "
        "[--connections C] [--rate READ_QPS] [--writers W] "
        "[--write-rate INSERTS_PER_S] [--batch B] [--workers N] "
        "[--json FILE]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt;
    opt.docs = 20000;
    size_t readers = 4;
    double rate = 200.0;
    size_t writers = 2;
    double write_rate = 500.0;
    size_t batch = 8;
    double duration = 5.0;
    server::Config scfg;
    scfg.workers = 3;
    scfg.allowInsert = true;

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
        else if (a == "--duration")
            duration = std::strtod(next(), nullptr);
        else if (a == "--connections")
            readers = std::strtoull(next(), nullptr, 10);
        else if (a == "--rate")
            rate = std::strtod(next(), nullptr);
        else if (a == "--writers")
            writers = std::strtoull(next(), nullptr, 10);
        else if (a == "--write-rate")
            write_rate = std::strtod(next(), nullptr);
        else if (a == "--batch")
            batch = std::strtoull(next(), nullptr, 10);
        else if (a == "--workers")
            scfg.workers = std::strtoull(next(), nullptr, 10);
        else if (a == "--json")
            opt.jsonPath = next();
        else
            return usage(argv[0]);
    }
    if (batch == 0)
        batch = 1;
    if (writers == 0)
        writers = 1;
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
    std::atomic<uint64_t> next_doc{0};

    // Write-lock hold per INSERT batch over one stage: mean of the
    // dvp_ingest_lock_ns samples the stage added.
    const obs::Histogram &lock_ns =
        obs::Registry::global().histogram("dvp_ingest_lock_ns");
    auto lockMeanMs = [&](uint64_t n0, uint64_t sum0) {
        uint64_t n = lock_ns.count() - n0;
        return n ? static_cast<double>(lock_ns.sum() - sum0) / n / 1e6
                 : 0.0;
    };

    // Stage 1: insert-only closed loop.
    uint64_t n0 = lock_ns.count(), sum0 = lock_ns.sum();
    StageResult ins = driveStage(port, 0, 0, writers, 0, batch,
                                 duration, next_doc);
    engine.quiesce();
    double ins_lock_ms = lockMeanMs(n0, sum0);
    double inserts_per_s = ins.insertsOk / ins.elapsed;

    // Stage 2: read-only open loop (the latency baseline).
    StageResult ro =
        driveStage(port, readers, rate, 0, 0, batch, duration,
                   next_doc);
    double ro_qps = ro.readsOk / ro.elapsed;
    double ro_p95 = percentileMs(ro.readLatenciesNs, 0.95);

    // Stage 3: the same read schedule with paced writers underneath.
    n0 = lock_ns.count();
    sum0 = lock_ns.sum();
    StageResult mixed = driveStage(port, readers, rate, writers,
                                   write_rate, batch, duration,
                                   next_doc);
    engine.quiesce();
    server.stop();
    double mx_lock_ms = lockMeanMs(n0, sum0);
    double mx_qps = mixed.readsOk / mixed.elapsed;
    double mx_p95 = percentileMs(mixed.readLatenciesNs, 0.95);
    double mx_inserts_per_s = mixed.insertsOk / mixed.elapsed;

    TablePrinter table({"stage", "reads ok", "inserts ok", "err",
                        "QPS", "inserts/s", "p50 ms", "p95 ms"});
    char buf[32];
    auto addRow = [&](const char *name, const StageResult &r) {
        std::vector<std::string> row{name, std::to_string(r.readsOk),
                                     std::to_string(r.insertsOk),
                                     std::to_string(r.errors)};
        auto fmt = [&](double v, const char *f) {
            std::snprintf(buf, sizeof(buf), f, v);
            row.push_back(buf);
        };
        fmt(r.readsOk / r.elapsed, "%.1f");
        fmt(r.insertsOk / r.elapsed, "%.1f");
        fmt(percentileMs(r.readLatenciesNs, 0.50), "%.3f");
        fmt(percentileMs(r.readLatenciesNs, 0.95), "%.3f");
        table.addRow(std::move(row));
    };
    addRow("insert-only", ins);
    addRow("read-only", ro);
    addRow("mixed", mixed);
    bench::emit(table,
                "live ingest over the wire (" +
                    std::to_string(writers) + " writers, " +
                    std::to_string(readers) + " readers)",
                opt.csv);
    std::printf("insert-only: %.0f inserts/s (batch %zu, write lock "
                "%.3f ms per batch); mixed: read p95 %.3f ms vs %.3f ms "
                "read-only (write lock %.3f ms per batch)\n",
                inserts_per_s, batch, ins_lock_ms, mx_p95, ro_p95,
                mx_lock_ms);

    bench::JsonLog log(opt, "ingest");
    log.value("server", "insert_only", "inserts_per_s", inserts_per_s,
              "1/s");
    log.value("server", "insert_only", "lock_ms", ins_lock_ms, "ms");
    log.value("server", "read_only", "qps", ro_qps, "1/s");
    log.value("server", "read_only", "p95_ms", ro_p95, "ms");
    log.value("server", "mixed", "qps", mx_qps, "1/s");
    log.value("server", "mixed", "p95_ms", mx_p95, "ms");
    log.value("server", "mixed", "inserts_per_s", mx_inserts_per_s,
              "1/s");
    log.value("server", "mixed", "lock_ms", mx_lock_ms, "ms");

    uint64_t errors = ins.errors + ro.errors + mixed.errors;
    if (errors > 0)
        std::fprintf(stderr, "%llu request errors\n",
                     static_cast<unsigned long long>(errors));
    return errors == 0 ? 0 : 1;
}

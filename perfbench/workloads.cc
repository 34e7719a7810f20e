/**
 * @file
 * The benchmark's workloads: serve_mix and scan_parallel, which
 * BENCHMARK.json lists, and the diagnostic ingest_restart (README.md
 * explains each choice and why ingest_restart is not listed).
 *
 * Every workload serves an in-process server::Server over an
 * adaptive::AdaptiveEngine with a durable data directory and drives it
 * with client::Client over loopback.  Inputs (NDJSON text and INSERT
 * statements) are generated from the seed before any timer starts.
 * The amount of work per run is fixed by the workload and --seconds,
 * never by a clock.  Answers are recorded compactly during the run and
 * checked afterwards against a serial row-layout reference engine
 * built from the same NDJSON, so the check costs nothing inside the
 * timed phases.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "bench.hh"
#include "client/client.hh"
#include "durability/manager.hh"
#include "engine/executor.hh"
#include "engine/load.hh"
#include "json/writer.hh"
#include "nobench/generator.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "server/server.hh"
#include "sql/parser.hh"

namespace perfbench
{
namespace
{

using namespace dvp;

/** The paper's Q1-Q11 as the wire sees them (fixed parameters). */
const char *const kSql[] = {
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
constexpr int kClasses = 11;
constexpr int kQ5 = 4; // the restart probe: a point query every
                       // workload also runs in its mix

/** Constants that define one workload. */
struct Shape
{
    std::string name;
    uint64_t baseDocs = 0;
    size_t workers = 1;    ///< server worker threads
    size_t lanes = 1;      ///< executor lanes per query
    std::vector<int> mix;  ///< query classes, in round order
    size_t cpus = 0;       ///< CPUs the run is pinned to; 0 = not pinned
    uint64_t ingestDocsPer10s = 0; ///< INSERTed docs per 10 s; 0 = reads only
};

constexpr size_t kSetups = 5;     ///< setups per run (setup_s median)
constexpr size_t kRestarts = 3;   ///< restarts per run (restart_s median)
constexpr size_t kInsertBatch = 200;   ///< docs per INSERT statement
constexpr size_t kMinClassSamples = 100;
constexpr uint64_t kReadRoundsPer10s = 100; ///< timed rounds per 10 s of --seconds
// ingest_restart writes ~63 MB of WAL: a 16 MiB threshold makes three
// background checkpoints run and bounds the tail a restart replays
// (the 64 MiB default would run none and replay everything).
constexpr uint64_t kCheckpointWalBytes = 16ull << 20;
constexpr uint64_t kFsyncIntervalMs = 50;

bool
shapeFor(const std::string &name, Shape &s)
{
    s.name = name;
    if (name == "serve_mix") {
        s.baseDocs = 20000;
        s.workers = 1;
        s.lanes = 1;
        s.cpus = 1;
        for (int q = 0; q < kClasses; ++q)
            s.mix.push_back(q);
        return true;
    }
    if (name == "scan_parallel") {
        s.baseDocs = 50000;
        s.workers = 1;
        s.lanes = 3;
        for (int q = 2; q < kClasses; ++q)
            s.mix.push_back(q);
        return true;
    }
    if (name == "ingest_restart") {
        s.baseDocs = 20000;
        s.workers = 2;
        s.lanes = 1;
        s.mix = {4, 5, 6, 8}; // Q5, Q6, Q7, Q9
        s.ingestDocsPer10s = 100000;
        return true;
    }
    return false;
}

std::string
className(int q)
{
    return "Q" + std::to_string(q + 1);
}

/**
 * Pin every thread of the process, and so every thread it starts
 * later, to the last @p n CPUs it may run on.  @return the CPUs chosen
 * ("" when @p n is 0 or not that many are allowed).
 */
std::string
pinToCpus(size_t n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (n == 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        static_cast<size_t>(CPU_COUNT(&allowed)) < n)
        return "";
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    std::string names;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu)
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &chosen);
            names = std::to_string(cpu) + (names.empty() ? "" : ",") + names;
            --n;
        }
    std::error_code ec;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        pid_t tid = static_cast<pid_t>(
            std::strtol(task.path().filename().c_str(), nullptr, 10));
        if (sched_setaffinity(tid, sizeof(chosen), &chosen) != 0)
            return "";
    }
    return ec ? "" : names;
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/** NDJSON for oids [first, first+count) drawn from @p rng. */
std::string
genNdjson(Rng &rng, int64_t first, uint64_t count)
{
    nobench::Config cfg;
    std::string out;
    for (uint64_t i = 0; i < count; ++i) {
        out += json::write(
            nobench::generateDoc(cfg, rng, first + static_cast<int64_t>(i)));
        out += '\n';
    }
    return out;
}

/** One INSERT statement and the documents it carries. */
struct Insert
{
    std::string sql;
    uint64_t docs = 0;
};

/** INSERT statements of kInsertBatch docs over NDJSON lines. */
std::vector<Insert>
insertStatements(const std::string &ndjson)
{
    std::vector<Insert> out;
    std::string cur;
    size_t in_batch = 0;
    size_t pos = 0;
    while (pos < ndjson.size()) {
        size_t nl = ndjson.find('\n', pos);
        std::string doc = ndjson.substr(pos, nl - pos);
        pos = nl + 1;
        cur += in_batch == 0 ? "INSERT INTO t VALUES ('" : ", ('";
        cur += doc;
        cur += "')";
        if (++in_batch == kInsertBatch) {
            out.push_back({std::move(cur), in_batch});
            cur.clear();
            in_batch = 0;
        }
    }
    if (in_batch > 0)
        out.push_back({std::move(cur), in_batch});
    return out;
}

// ---------------------------------------------------------------------
// The serving stack
// ---------------------------------------------------------------------

adaptive::Params
engineParams(const Shape &sh)
{
    adaptive::Params p;
    p.background = true; // the program dvpd runs
    p.threads = sh.lanes;
    return p;
}

/**
 * Warm-up rounds: one change-detector window of queries plus a round,
 * so any repartition the mix triggers happens before timing.
 */
size_t
warmRounds(const Shape &sh)
{
    size_t window = engineParams(sh).window;
    return (window + sh.mix.size() - 1) / sh.mix.size() + 1;
}

server::Config
serverConfig(const Shape &sh)
{
    server::Config c;
    c.workers = sh.workers;
    c.allowInsert = sh.ingestDocsPer10s > 0;
    return c;
}

/** One DataSet + Manager + engine + server, torn down in order. */
struct Stack
{
    engine::DataSet data; // outlives everything below
    std::unique_ptr<durability::Manager> dur;
    std::unique_ptr<adaptive::AdaptiveEngine> engine;
    std::unique_ptr<server::Server> server;

    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /**
     * Stop serving and release everything without a final checkpoint,
     * so a later recovery replays the WAL written since the last one.
     */
    ~Stack()
    {
        if (server)
            server->stop();
        server.reset();
        // A fold in flight may log a swap and kick a checkpoint whose
        // cut reads the engine: finish both before either goes away.
        if (engine)
            engine->quiesce();
        if (dur)
            dur->quiesce();
        engine.reset();
        dur.reset();
    }
};

/** Step times of one setup, in seconds. */
struct SetupTimes
{
    double total = 0;
    double checkpointMs = 0;
    engine::LoadStats load;
    adaptive::AuditRecord initial;
};

std::unique_ptr<Stack>
setupStack(const std::string &ndjson, const Shape &sh,
           const durability::Config &dcfg, bool timeStages,
           SpanLog &spans, uint64_t request, SetupTimes &t,
           std::string &err)
{
    std::error_code ec;
    std::filesystem::remove_all(dcfg.dir, ec);

    uint64_t t0 = nowNs();
    Scoped setup(spans, "setup", request);
    const uint64_t root = setup.id();
    auto st = std::make_unique<Stack>();
    {
        Scoped s(spans, "durability.open", request, root);
        st->dur = std::make_unique<durability::Manager>(dcfg);
        durability::RecoveryInfo ri;
        err = st->dur->open(st->data, ri);
        if (err.empty() && ri.recovered)
            err = "data directory was not fresh";
    }
    if (!err.empty())
        return nullptr;
    {
        Scoped s(spans, "engine.loadNdjson", request, root);
        engine::LoadOptions lo;
        lo.threads = sh.lanes;
        lo.timeStages = timeStages;
        err = engine::loadNdjson(st->data, ndjson, lo, &t.load);
    }
    if (!err.empty())
        return nullptr;
    {
        Scoped s(spans, "adaptive.construct", request, root);
        st->engine = std::make_unique<adaptive::AdaptiveEngine>(
            st->data, std::vector<engine::Query>{}, engineParams(sh));
        st->engine->setDurability(st->dur.get());
    }
    {
        Scoped s(spans, "durability.checkpoint", request, root);
        durability::CheckpointResult ck = st->dur->checkpointNow();
        if (!ck.ok)
            err = "initial checkpoint: " + ck.error;
        t.checkpointMs = ck.seconds * 1e3;
    }
    if (!err.empty())
        return nullptr;
    {
        Scoped s(spans, "server.start", request, root);
        st->server =
            std::make_unique<server::Server>(*st->engine, serverConfig(sh));
        err = st->server->start();
    }
    if (!err.empty())
        return nullptr;
    t.total = static_cast<double>(nowNs() - t0) / 1e9;
    t.initial = st->engine->auditTrail().front();
    return st;
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/** What the benchmark keeps of one answered read. */
struct Answer
{
    int cls = 0;
    bool ok = false;
    std::string error;
    uint64_t wallNs = 0;
    uint64_t execNs = 0;
    uint64_t digest = 0;
    uint64_t rows = 0;
    std::map<std::string, uint64_t> op; ///< opStats by key
    std::vector<int64_t> oids; ///< kept only for prefix checks
    uint64_t visibleLo = 0;    ///< docs acked before the send
    uint64_t visibleHi = 0;    ///< docs sent when the answer arrived

    uint64_t
    stat(const char *k) const
    {
        auto it = op.find(k);
        return it == op.end() ? 0 : it->second;
    }
};

/** Trace ids: one per request, distinct per workload thread. */
struct TraceIds
{
    uint64_t base;
    uint64_t next = 1;
    uint64_t take() { return base | next++; }
};

Answer
ask(client::Client &c, int cls, SpanLog &spans, TraceIds &ids,
    bool keepOids)
{
    uint64_t id = spans.enabled() ? ids.take() : 0;
    c.setTraceId(id);
    Answer a;
    a.cls = cls;
    uint64_t t0 = nowNs();
    client::Result r = c.query(kSql[cls]);
    uint64_t t1 = nowNs();
    spans.add("client.query", id, 0, t0, t1);
    a.wallNs = t1 - t0;
    a.ok = r.ok && !r.isMessage;
    a.error = r.ok ? (r.isMessage ? "message instead of rows" : "")
                   : r.error;
    a.execNs = r.execNs;
    a.digest = r.digest;
    a.rows = r.rows.size();
    for (const auto &[k, v] : r.opStats)
        a.op[k] = v;
    if (keepOids)
        a.oids = std::move(r.oids);
    return a;
}

/** Reference result of every class over one data set. */
struct Reference
{
    engine::ResultSet rs[kClasses];
};

/**
 * Serial, row-layout, scalar-scan reference over @p ndjson: the
 * oracle every answer is checked against.  Built after all timing.
 */
std::string
buildReference(const std::string &ndjson, Reference &ref)
{
    engine::DataSet data;
    engine::LoadOptions lo;
    std::string err = engine::loadNdjson(data, ndjson, lo);
    if (!err.empty())
        return "reference load: " + err;
    engine::Database db(data,
                        layout::Layout::rowBased(data.catalog.allAttrs()),
                        "row");
    engine::Executor ex(db, 1);
    ex.setVectorized(false);
    for (int q = 0; q < kClasses; ++q) {
        sql::ParseResult p = sql::parse(kSql[q], data);
        if (!p.ok)
            return std::string("reference parse: ") + p.error;
        ref.rs[q] = ex.run(p.query);
    }
    return "";
}

/** Check a full answer against the reference. */
void
checkFull(const Answer &a, const Reference &ref, Report &rep,
          const char *where)
{
    ++rep.attempted;
    const engine::ResultSet &want = ref.rs[a.cls];
    if (!a.ok)
        rep.fail(std::string(where) + " " + className(a.cls) + ": " +
                 a.error);
    else if (a.rows != want.rows.size() || a.digest != want.digest())
        rep.fail(std::string(where) + " " + className(a.cls) +
                 ": rows/digest differ from the reference (" +
                 std::to_string(a.rows) + " vs " +
                 std::to_string(want.rows.size()) + ")");
}

/**
 * Check a read that ran beside INSERTs: its rows must be the oid-order
 * prefix of the reference over all documents, cut somewhere between
 * what was acked before the send and what was sent by the answer.
 */
void
checkPrefix(const Answer &a, const Reference &ref, Report &rep)
{
    ++rep.attempted;
    const engine::ResultSet &want = ref.rs[a.cls];
    std::string what = "concurrent " + className(a.cls) + ": ";
    if (!a.ok) {
        rep.fail(what + a.error);
        return;
    }
    size_t n = a.oids.size();
    if (n != a.rows || n > want.oids.size() ||
        !std::equal(a.oids.begin(), a.oids.end(), want.oids.begin())) {
        rep.fail(what + "rows are not a prefix of the reference");
        return;
    }
    size_t must = 0;
    while (must < want.oids.size() &&
           static_cast<uint64_t>(want.oids[must]) < a.visibleLo)
        ++must;
    bool beyond = n > 0 && static_cast<uint64_t>(a.oids[n - 1]) >=
                               a.visibleHi;
    if (n < must || beyond) {
        rep.fail(what + "visible rows outside the acked/sent window");
        return;
    }
    engine::ResultSet prefix;
    prefix.rows.assign(want.rows.begin(),
                       want.rows.begin() + static_cast<ptrdiff_t>(n));
    if (prefix.digest() != a.digest)
        rep.fail(what + "digest differs from the reference prefix");
}

// ---------------------------------------------------------------------
// Restart
// ---------------------------------------------------------------------

struct RestartTimes
{
    double total = 0; ///< open -> first answer, seconds
    double openMs = 0;
    double restoreMs = 0;
    double firstQueryMs = 0;
    durability::RecoveryInfo info;
    size_t docs = 0;
    Answer first;
};

/**
 * Recover the data directory into a new stack, serve it, and answer
 * the first query.  @p keep receives the stack for further checks.
 */
std::string
restartOnce(const Shape &sh, const durability::Config &dcfg,
            SpanLog &spans, TraceIds &ids, RestartTimes &t,
            std::unique_ptr<Stack> &keep, std::unique_ptr<client::Client> &conn)
{
    uint64_t request = spans.enabled() ? ids.take() : 0;
    uint64_t t0 = nowNs();
    Scoped restart(spans, "restart", request);
    const uint64_t root = restart.id();
    auto st = std::make_unique<Stack>();
    std::string err;
    {
        Scoped s(spans, "durability.open", request, root);
        st->dur = std::make_unique<durability::Manager>(dcfg);
        err = st->dur->open(st->data, t.info);
    }
    uint64_t t1 = nowNs();
    if (!err.empty())
        return "recovery: " + err;
    if (!t.info.recovered || !t.info.layout)
        return "recovery found no committed layout";
    {
        Scoped s(spans, "adaptive.restore", request, root);
        adaptive::Restore r;
        r.layout = *t.info.layout;
        r.epoch = t.info.epoch;
        r.baseDocs = t.info.baseDocs;
        st->engine = adaptive::AdaptiveEngine::restore(
            st->data, std::move(r), engineParams(sh));
        st->engine->setDurability(st->dur.get());
    }
    uint64_t t2 = nowNs();
    {
        Scoped s(spans, "server.start", request, root);
        st->server =
            std::make_unique<server::Server>(*st->engine, serverConfig(sh));
        err = st->server->start();
    }
    if (!err.empty())
        return "restart: " + err;
    auto c = std::make_unique<client::Client>();
    {
        Scoped s(spans, "client.connect", request, root);
        err = c->connect("127.0.0.1", st->server->port(), "perfbench");
    }
    if (!err.empty())
        return "restart connect: " + err;
    uint64_t t3 = nowNs();
    t.first = ask(*c, kQ5, spans, ids, false);
    uint64_t t4 = nowNs();
    t.total = static_cast<double>(t4 - t0) / 1e9;
    t.openMs = static_cast<double>(t1 - t0) / 1e6;
    t.restoreMs = static_cast<double>(t2 - t1) / 1e6;
    t.firstQueryMs = static_cast<double>(t4 - t3) / 1e6;
    t.docs = st->data.docs.size();
    keep = std::move(st);
    conn = std::move(c);
    return "";
}

// ---------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------

/**
 * Per-layer metric names and units, in report order.  Every run prints
 * every metric of its list; one a workload does not exercise reads 0
 * (Q1 and Q2 on scan_parallel).  ingest_restart adds its write-path
 * metrics.
 */
std::vector<Metric>
perLayerTemplate(bool ingest)
{
    std::vector<Metric> m;
    for (int q = 0; q < kClasses; ++q)
        m.push_back({"client.query_ms." + className(q), 0, "ms"});
    for (int q = 0; q < kClasses; ++q)
        m.push_back({"engine.exec_ms." + className(q), 0, "ms"});
    const std::pair<const char *, const char *> rest[] = {
        {"client.round_p90_ms", "ms"},
        {"server.outside_exec_ms", "ms"},
        {"engine.plan_ms", "ms"},
        {"engine.filter_ms", "ms"},
        {"engine.retrieve_ms", "ms"},
        {"engine.project_ms", "ms"},
        {"engine.join_ms", "ms"},
        {"engine.morsels", "count"},
        {"engine.rows_scanned", "count"},
        {"engine.rows_out", "count"},
        {"engine.blocks_skipped_ratio", "ratio"},
        {"engine.plan_hit_ratio", "ratio"},
        {"adaptive.repartitions", "count"},
        {"durability.checkpoint_ms", "ms"},
        {"durability.restart_ms", "ms"},
        {"durability.open_ms", "ms"},
        {"adaptive.restore_ms", "ms"},
        {"client.first_query_ms", "ms"},
        {"json.index_ms", "ms"},
        {"json.walk_ms", "ms"},
        {"engine.encode_ms", "ms"},
        {"dvp.partitioner_ms", "ms"},
        {"adaptive.build_ms", "ms"},
        {"host.calib_ms", "ms"},
        {"trace.throughput", "1/s"},
    };
    const std::pair<const char *, const char *> write[] = {
        {"sql.insert_ack_ms", "ms"},
        {"client.ingest_late_over_early", "ratio"},
        {"engine.delta_rows", "count"},
        {"adaptive.folds", "count"},
        {"adaptive.fold_ms", "ms"},
        {"adaptive.fold_rebuild_ratio", "ratio"},
        {"adaptive.queries_during_repartition", "count"},
        {"durability.wal_bytes_per_doc", "B"},
        {"durability.checkpoints", "count"},
        {"durability.replayed_records", "count"},
    };
    for (const auto &[n, u] : rest)
        m.push_back({n, 0, u});
    if (ingest)
        for (const auto &[n, u] : write)
            m.push_back({n, 0, u});
    return m;
}

void
setMetric(std::vector<Metric> &ms, const std::string &name, double v)
{
    for (Metric &m : ms)
        if (m.name == name) {
            m.value = v;
            return;
        }
    std::fprintf(stderr, "internal: unknown metric %s\n", name.c_str());
    std::abort();
}

/**
 * Latency metrics.  @p latencyMs: geometric mean of the per-class
 * median client latencies (@p insertMs, when given, adds the INSERT
 * acks as one more class).  The per-layer client.round_p90_ms is the
 * p90 over rounds of the round's total client latency, a round being
 * one pass over the mix of @p classes answers.  It is not an
 * end-to-end metric: on a shared host the slowest tenth of the rounds
 * is set by the other tenants' load (README.md, Steadiness).
 */
void
latencyMetrics(const std::vector<Answer> &answers, size_t classes,
               Report &rep, double &latencyMs,
               const std::vector<double> *insertMs = nullptr)
{
    std::map<int, std::vector<double>> wall, exec;
    for (const Answer &a : answers) {
        wall[a.cls].push_back(static_cast<double>(a.wallNs) / 1e6);
        exec[a.cls].push_back(static_cast<double>(a.execNs) / 1e6);
    }
    std::vector<double> meds;
    for (const auto &[cls, v] : wall) {
        meds.push_back(median(v));
        setMetric(rep.perLayer, "client.query_ms." + className(cls),
                  median(v));
        setMetric(rep.perLayer, "engine.exec_ms." + className(cls),
                  median(exec[cls]));
    }
    if (insertMs != nullptr)
        meds.push_back(median(*insertMs));
    latencyMs = geomean(meds);

    std::vector<double> rounds;
    for (size_t i = 0; i + classes <= answers.size(); i += classes) {
        double sum = 0;
        for (size_t k = i; k < i + classes; ++k)
            sum += static_cast<double>(answers[k].wallNs) / 1e6;
        rounds.push_back(sum);
    }
    if (rounds.size() < kMinClassSamples)
        std::printf("note: %zu rounds (< %zu) behind the p90\n",
                    rounds.size(), kMinClassSamples);
    double p90 = percentile(rounds, 0.90);
    setMetric(rep.perLayer, "client.round_p90_ms", p90);
    std::printf("rounds: %zu, p10 %.3f ms, median %.3f ms, p90 %.3f ms\n",
                rounds.size(), percentile(rounds, 0.10), median(rounds),
                p90);
}

/**
 * Per-round operator sums (medians over rounds) and ratios over all
 * answers.  A round is one pass over the mix of @p classes answers.
 */
void
roundMetrics(const std::vector<Answer> &answers, size_t classes,
             Report &rep, bool counts)
{
    std::vector<double> outside, plan, filter, retrieve, project, join,
        morsels, scanned, rowsOut;
    uint64_t skipped = 0, blocks = 0, hits = 0;
    for (size_t i = 0; i + classes <= answers.size(); i += classes) {
        double o = 0, pl = 0, fi = 0, re = 0, pr = 0, jo = 0, mo = 0,
               sc = 0, ro = 0;
        for (size_t k = i; k < i + classes; ++k) {
            const Answer &a = answers[k];
            o += static_cast<double>(a.wallNs - std::min(a.wallNs, a.execNs));
            pl += static_cast<double>(a.stat("plan_ns"));
            fi += static_cast<double>(a.stat("filter_ns"));
            re += static_cast<double>(a.stat("retrieve_ns"));
            pr += static_cast<double>(a.stat("project_ns"));
            jo += static_cast<double>(a.stat("join_ns"));
            mo += static_cast<double>(a.stat("morsels"));
            sc += static_cast<double>(a.stat("rows_scanned"));
            ro += static_cast<double>(a.stat("rows_out"));
            skipped += a.stat("blocks_skipped");
            blocks += a.stat("blocks_scanned") + a.stat("blocks_skipped");
            hits += a.stat("plan_source") ==
                    static_cast<uint64_t>(engine::PlanSource::CacheHit);
        }
        outside.push_back(o / 1e6);
        plan.push_back(pl / 1e6);
        filter.push_back(fi / 1e6);
        retrieve.push_back(re / 1e6);
        project.push_back(pr / 1e6);
        join.push_back(jo / 1e6);
        morsels.push_back(mo);
        scanned.push_back(sc);
        rowsOut.push_back(ro);
    }
    setMetric(rep.perLayer, "server.outside_exec_ms", median(outside));
    setMetric(rep.perLayer, "engine.plan_ms", median(plan));
    setMetric(rep.perLayer, "engine.filter_ms", median(filter));
    setMetric(rep.perLayer, "engine.retrieve_ms", median(retrieve));
    setMetric(rep.perLayer, "engine.project_ms", median(project));
    setMetric(rep.perLayer, "engine.join_ms", median(join));
    if (counts) {
        setMetric(rep.perLayer, "engine.morsels", median(morsels));
        setMetric(rep.perLayer, "engine.rows_scanned", median(scanned));
        setMetric(rep.perLayer, "engine.rows_out", median(rowsOut));
    }
    setMetric(rep.perLayer, "engine.blocks_skipped_ratio",
              blocks ? static_cast<double>(skipped) /
                           static_cast<double>(blocks)
                     : 0.0);
    setMetric(rep.perLayer, "engine.plan_hit_ratio",
              answers.empty() ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(answers.size()));
}

/** Setup-side per-layer metrics: medians over the setups. */
void
setupMetrics(const std::vector<SetupTimes> &setups, Report &rep)
{
    std::vector<double> idx, walk, enc, part, build, ck;
    for (const SetupTimes &s : setups) {
        ck.push_back(s.checkpointMs);
        idx.push_back(static_cast<double>(s.load.indexNs) / 1e6);
        walk.push_back(static_cast<double>(s.load.walkNs) / 1e6);
        enc.push_back(static_cast<double>(s.load.encodeNs) / 1e6);
        part.push_back(static_cast<double>(s.initial.partitionerNs) / 1e6);
        build.push_back(static_cast<double>(s.initial.buildNs) / 1e6);
    }
    setMetric(rep.perLayer, "json.index_ms", median(idx));
    setMetric(rep.perLayer, "json.walk_ms", median(walk));
    setMetric(rep.perLayer, "engine.encode_ms", median(enc));
    setMetric(rep.perLayer, "dvp.partitioner_ms", median(part));
    setMetric(rep.perLayer, "adaptive.build_ms", median(build));
    setMetric(rep.perLayer, "durability.checkpoint_ms", median(ck));
}

/** Restart per-layer metrics; returns the median restart in seconds. */
double
restartMetrics(const std::vector<RestartTimes> &rs, Report &rep,
               bool ingest)
{
    std::vector<double> total, open, restore, first, replayed;
    for (const RestartTimes &r : rs) {
        total.push_back(r.total);
        open.push_back(r.openMs);
        restore.push_back(r.restoreMs);
        first.push_back(r.firstQueryMs);
        replayed.push_back(static_cast<double>(r.info.replayedRecords));
    }
    setMetric(rep.perLayer, "durability.restart_ms", median(total) * 1e3);
    setMetric(rep.perLayer, "durability.open_ms", median(open));
    setMetric(rep.perLayer, "adaptive.restore_ms", median(restore));
    setMetric(rep.perLayer, "client.first_query_ms", median(first));
    if (ingest)
        setMetric(rep.perLayer, "durability.replayed_records",
                  median(replayed));
    return median(total);
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/** Everything a run shares across its phases. */
struct Run
{
    const Args &args;
    Shape sh;
    SpanLog &spans;
    Report &rep;
    durability::Config dcfg;
    TraceIds ids{0};
    std::vector<SetupTimes> setups;
    std::vector<RestartTimes> restarts;

    Run(const Args &a, SpanLog &s, Report &r) : args(a), spans(s), rep(r) {}

    uint64_t
    scaled(uint64_t per10s) const
    {
        return (per10s * args.seconds + 9) / 10;
    }

    /** kSetups setups; returns the last stack, serving. */
    std::unique_ptr<Stack>
    setUp(const std::string &ndjson)
    {
        std::unique_ptr<Stack> st;
        for (size_t i = 0; i < kSetups; ++i) {
            st.reset(); // tear the previous one down first
            SetupTimes t;
            std::string err;
            st = setupStack(ndjson, sh, dcfg, args.trace, spans,
                            spans.enabled() ? ids.take() : 0, t, err);
            if (!st) {
                rep.fail("setup: " + err);
                return nullptr;
            }
            setups.push_back(t);
        }
        std::vector<double> totals;
        for (const SetupTimes &t : setups)
            totals.push_back(t.total);
        std::printf("setups:");
        for (double t : totals)
            std::printf(" %.3f s", t);
        std::printf("\n");
        return st;
    }

    /**
     * kRestarts recoveries of the torn-down data directory.  Each one
     * replays the same snapshot and WAL tail, so they measure the same
     * work.  The last stack stays up and is returned for checks.
     */
    std::unique_ptr<Stack>
    restart(std::unique_ptr<client::Client> &conn)
    {
        std::unique_ptr<Stack> st;
        for (size_t i = 0; i < kRestarts; ++i) {
            conn.reset();
            st.reset();
            RestartTimes t;
            std::string err = restartOnce(sh, dcfg, spans, ids, t, st, conn);
            if (!err.empty()) {
                ++rep.attempted;
                rep.fail(err);
                return nullptr;
            }
            restarts.push_back(std::move(t));
        }
        std::printf("restarts (open + restore + start + first query):");
        for (const RestartTimes &t : restarts)
            std::printf(" %.3f s (%.0f + %.0f ms)", t.total, t.openMs,
                        t.restoreMs);
        std::printf("\n");
        return st;
    }

    /** @p restartS < 0: the workload reports no restart_s. */
    void
    finishEndToEnd(double throughput, double latencyMs,
                   double rssMb, double restartS)
    {
        std::vector<double> setup;
        for (const SetupTimes &t : setups)
            setup.push_back(t.total);
        rep.endToEnd = {
            {"setup_s", median(setup), "s"},
            {"throughput", throughput, "1/s"},
            {"latency_ms", latencyMs, "ms"},
            {"rss_mb", rssMb, "MiB"},
        };
        if (restartS >= 0)
            rep.endToEnd.push_back({"restart_s", restartS, "s"});
        setMetric(rep.perLayer, "trace.throughput", throughput);
        for (const Metric &m : rep.endToEnd)
            std::printf("%-16s %14.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
};

/** serve_mix and scan_parallel: one connection, closed loop. */
void
readWorkload(Run &run, const std::string &ndjson)
{
    const Shape &sh = run.sh;
    Report &rep = run.rep;
    std::unique_ptr<Stack> st = run.setUp(ndjson);
    if (!st)
        return;

    std::vector<Answer> warm, timed;
    double throughput = 0;
    uint64_t reparts = 0;
    {
        client::Client c;
        std::string err = c.connect("127.0.0.1", st->server->port(),
                                    "perfbench");
        if (!err.empty()) {
            ++rep.attempted;
            rep.fail("connect: " + err);
            return;
        }
        // Warm up past one change-detector window, let any repartition
        // it caused land, then re-warm the plan cache on the final
        // layout before timing.
        for (size_t r = 0; r < warmRounds(sh); ++r)
            for (int q : sh.mix)
                warm.push_back(ask(c, q, run.spans, run.ids, false));
        st->engine->quiesce();
        for (int q : sh.mix)
            warm.push_back(ask(c, q, run.spans, run.ids, false));

        uint64_t rounds = std::max<uint64_t>(run.scaled(kReadRoundsPer10s),
                                             kMinClassSamples);
        uint64_t before = st->engine->adaptation().repartitions;
        timed.reserve(rounds * sh.mix.size());
        uint64_t t0 = nowNs();
        for (uint64_t r = 0; r < rounds; ++r)
            for (int q : sh.mix)
                timed.push_back(ask(c, q, run.spans, run.ids, false));
        double wall = static_cast<double>(nowNs() - t0) / 1e9;
        reparts = st->engine->adaptation().repartitions - before;
        throughput = static_cast<double>(timed.size()) / wall;
        std::printf("timed: %" PRIu64 " rounds x %zu queries in %.3f s, "
                    "repartitions in timed phase: %" PRIu64 "\n",
                    rounds, sh.mix.size(), wall, reparts);
        c.close();
    }
    st.reset();
    double rss = peakRssMb();

    // Restart from the snapshot set-up wrote.  Only per-layer metrics
    // use it, so untraced runs skip it.
    if (run.args.trace) {
        std::unique_ptr<client::Client> conn;
        std::unique_ptr<Stack> rst = run.restart(conn);
        conn.reset();
        rst.reset();
        restartMetrics(run.restarts, rep, false);
    }

    double lat = 0;
    latencyMetrics(timed, sh.mix.size(), rep, lat);
    roundMetrics(timed, sh.mix.size(), rep, true);
    setMetric(rep.perLayer, "adaptive.repartitions",
              static_cast<double>(reparts));
    setupMetrics(run.setups, rep);
    run.finishEndToEnd(throughput, lat, rss, -1);

    // Oracle, after every timer.
    Reference ref;
    std::string err = buildReference(ndjson, ref);
    if (!err.empty()) {
        ++rep.attempted;
        rep.fail(err);
        return;
    }
    for (const Answer &a : warm)
        checkFull(a, ref, rep, "warm-up");
    for (const Answer &a : timed)
        checkFull(a, ref, rep, "timed");
    for (const RestartTimes &r : run.restarts) {
        checkFull(r.first, ref, rep, "after restart");
        ++rep.attempted;
        if (r.docs != sh.baseDocs)
            rep.fail("restart recovered " + std::to_string(r.docs) +
                     " docs, expected " + std::to_string(sh.baseDocs));
    }
}

/** ingest_restart: one writer, one reader, then restart. */
void
ingestWorkload(Run &run, const std::string &baseNdjson,
               const std::string &insertNdjson)
{
    const Shape &sh = run.sh;
    Report &rep = run.rep;
    std::vector<Insert> inserts = insertStatements(insertNdjson);
    uint64_t insertDocs = 0;
    for (const Insert &ins : inserts)
        insertDocs += ins.docs;

    std::unique_ptr<Stack> st = run.setUp(baseNdjson);
    if (!st)
        return;
    uint16_t port = st->server->port();

    client::Client reader, writer;
    std::string err = reader.connect("127.0.0.1", port, "perfbench-r");
    if (err.empty())
        err = writer.connect("127.0.0.1", port, "perfbench-w");
    if (!err.empty()) {
        ++rep.attempted;
        rep.fail("connect: " + err);
        return;
    }

    // Reader warm-up past one detector window, then quiesce.
    std::vector<Answer> warm;
    for (size_t r = 0; r < warmRounds(sh); ++r)
        for (int q : sh.mix)
            warm.push_back(ask(reader, q, run.spans, run.ids, false));
    st->engine->quiesce();

    client::Stats s0 = writer.stats();
    obs::Histogram &ckh =
        obs::Registry::global().histogram("dvp_checkpoint_ns");
    uint64_t ck_count0 = ckh.count(), ck_sum0 = ckh.sum();
    uint64_t seq0 = st->engine->auditTrail().back().seq;
    uint64_t qdr0 = st->engine->adaptation().queriesDuringRepartition;

    std::atomic<uint64_t> sent{sh.baseDocs}, acked{sh.baseDocs};
    std::atomic<bool> writerDone{false};
    std::vector<double> ackMs;
    std::vector<uint64_t> doneNs;
    std::vector<std::string> writeErrors;
    std::vector<Answer> reads;
    uint64_t t0 = nowNs();

    // Open loop: statement i is due when the offered rate has covered
    // the documents before it; its latency counts from that moment, so
    // a stall also charges the statements queued behind it.
    const double nsPerDoc = 1e10 / static_cast<double>(sh.ingestDocsPer10s);
    std::thread wt([&] {
        TraceIds wids{1ull << 62};
        uint64_t before = 0;
        for (const Insert &ins : inserts) {
            uint64_t due = t0 + static_cast<uint64_t>(
                                    nsPerDoc * static_cast<double>(before));
            before += ins.docs;
            for (uint64_t now = nowNs(); now < due; now = nowNs())
                std::this_thread::sleep_for(std::chrono::microseconds(
                    std::min<uint64_t>(1000, (due - now) / 1000 + 1)));
            sent.fetch_add(ins.docs);
            uint64_t id = run.spans.enabled() ? wids.take() : 0;
            writer.setTraceId(id);
            uint64_t sendAt = nowNs();
            client::Result r = writer.query(ins.sql);
            uint64_t b = nowNs();
            run.spans.add("client.insert", id, 0, sendAt, b);
            if (!r.ok)
                writeErrors.push_back(r.error);
            else
                acked.fetch_add(ins.docs);
            ackMs.push_back(static_cast<double>(b - due) / 1e6);
            doneNs.push_back(b);
        }
        writerDone.store(true);
    });
    std::thread rt([&] {
        // Until the writer is done, and for at least kMinClassSamples
        // rounds so every class has a p90.
        TraceIds rids{2ull << 62};
        for (size_t round = 0;
             !writerDone.load() || round < kMinClassSamples; ++round) {
            for (int q : sh.mix) {
                uint64_t lo = acked.load();
                Answer a = ask(reader, q, run.spans, rids, true);
                a.visibleLo = lo;
                a.visibleHi = sent.load();
                reads.push_back(std::move(a));
            }
        }
    });
    wt.join();
    double writeWall = static_cast<double>(nowNs() - t0) / 1e9;
    rt.join();

    // Let the last fold and checkpoint land, then read the counters.
    st->engine->quiesce();
    st->dur->quiesce();
    client::Stats s1 = writer.stats();
    uint64_t ck_count = ckh.count() - ck_count0;
    uint64_t ck_sum = ckh.sum() - ck_sum0;
    std::vector<adaptive::AuditRecord> trail = st->engine->auditTrail();
    uint64_t qdr = st->engine->adaptation().queriesDuringRepartition - qdr0;

    std::vector<Answer> before;
    for (int q = 0; q < kClasses; ++q)
        before.push_back(ask(writer, q, run.spans, run.ids, false));
    reader.close();
    writer.close();
    st.reset(); // no final checkpoint

    std::unique_ptr<client::Client> conn;
    std::unique_ptr<Stack> rst = run.restart(conn);
    std::vector<Answer> after;
    if (rst)
        for (int q = 0; q < kClasses; ++q)
            after.push_back(ask(*conn, q, run.spans, run.ids, false));
    conn.reset();
    rst.reset();
    double rss = peakRssMb();

    // End-to-end and per-layer numbers.
    uint64_t ackedDocs = acked.load() - sh.baseDocs;
    double throughput = static_cast<double>(ackedDocs) / writeWall;
    double lat = 0, restartS = 0;
    setupMetrics(run.setups, rep); // checkpoint_ms is replaced below
    latencyMetrics(reads, sh.mix.size(), rep, lat, &ackMs);
    roundMetrics(reads, sh.mix.size(), rep, false);
    // Reader rounds grow with the table, so the exact counts come from
    // the Q1-Q11 round after the restart (all documents, fixed).
    {
        double mo = 0, sc = 0, ro = 0;
        for (const Answer &a : after) {
            mo += static_cast<double>(a.stat("morsels"));
            sc += static_cast<double>(a.stat("rows_scanned"));
            ro += static_cast<double>(a.stat("rows_out"));
        }
        setMetric(rep.perLayer, "engine.morsels", mo);
        setMetric(rep.perLayer, "engine.rows_scanned", sc);
        setMetric(rep.perLayer, "engine.rows_out", ro);
    }
    setMetric(rep.perLayer, "sql.insert_ack_ms", median(ackMs));
    size_t nq = doneNs.size();
    if (nq >= 8) {
        size_t qn = nq / 4;
        double early = static_cast<double>(doneNs[qn - 1] - t0);
        double late = static_cast<double>(doneNs[nq - 1] -
                                          doneNs[nq - 1 - qn]);
        setMetric(rep.perLayer, "client.ingest_late_over_early",
                  early / late);
    }
    {
        std::vector<double> d;
        for (const Answer &a : reads)
            d.push_back(static_cast<double>(a.stat("delta_rows")));
        setMetric(rep.perLayer, "engine.delta_rows", median(d));
    }
    {
        // Folds of the timed phase: every repartition that drained
        // delta rows, whichever trigger fired first (delta size,
        // ingest drift, or the reader's query window).  Rows rebuilt
        // by a fold = the base it started from + the rows it folded.
        uint64_t base = sh.baseDocs, rebuilt = 0, folded = 0, folds = 0;
        std::map<std::string, uint64_t> triggers;
        std::vector<double> ms;
        for (const adaptive::AuditRecord &r : trail) {
            if (r.seq <= seq0)
                continue;
            ++triggers[r.trigger.rfind("SELECT", 0) == 0 ? "query-window"
                                                          : r.trigger];
            if (r.deltaFolded == 0)
                continue;
            ++folds;
            rebuilt += base + r.deltaFolded;
            folded += r.deltaFolded;
            base += r.deltaFolded;
            ms.push_back(static_cast<double>(r.partitionerNs + r.buildNs +
                                             r.swapNs) /
                         1e6);
        }
        std::printf("repartitions in the timed phase:");
        for (const auto &[t, n] : triggers)
            std::printf(" %s=%" PRIu64, t.c_str(), n);
        std::printf(" (%" PRIu64 " of them folded delta rows)\n", folds);
        setMetric(rep.perLayer, "adaptive.folds", static_cast<double>(folds));
        setMetric(rep.perLayer, "adaptive.fold_ms", median(ms));
        setMetric(rep.perLayer, "adaptive.fold_rebuild_ratio",
                  folded ? static_cast<double>(rebuilt) /
                               static_cast<double>(folded)
                         : 0.0);
        setMetric(rep.perLayer, "adaptive.repartitions",
                  static_cast<double>(trail.back().seq - seq0));
        setMetric(rep.perLayer, "adaptive.queries_during_repartition",
                  static_cast<double>(qdr));
    }
    {
        uint64_t wal = s1.get("wal_bytes_total") - s0.get("wal_bytes_total");
        uint64_t cks = s1.get("checkpoints_total") -
                       s0.get("checkpoints_total");
        setMetric(rep.perLayer, "durability.wal_bytes_per_doc",
                  ackedDocs ? static_cast<double>(wal) /
                                  static_cast<double>(ackedDocs)
                            : 0.0);
        setMetric(rep.perLayer, "durability.checkpoints",
                  static_cast<double>(cks));
        setMetric(rep.perLayer, "durability.checkpoint_ms",
                  ck_count ? static_cast<double>(ck_sum) /
                                 static_cast<double>(ck_count) / 1e6
                           : 0.0);
        std::printf("ingest: %" PRIu64 " docs acked in %.3f s, %zu reads, "
                    "%" PRIu64 " background checkpoints (fsync=interval "
                    "%" PRIu64 " ms, checkpoint every %" PRIu64
                    " MiB of WAL)\n",
                    ackedDocs, writeWall, reads.size(), cks,
                    kFsyncIntervalMs, kCheckpointWalBytes >> 20);
    }
    restartS = restartMetrics(run.restarts, rep, true);
    run.finishEndToEnd(throughput, lat, rss, restartS);

    // Checks, after every timer.
    rep.attempted += inserts.size();
    for (const std::string &e : writeErrors)
        rep.fail("INSERT: " + e);
    Reference baseRef, fullRef;
    err = buildReference(baseNdjson, baseRef);
    if (err.empty())
        err = buildReference(baseNdjson + insertNdjson, fullRef);
    if (!err.empty()) {
        ++rep.attempted;
        rep.fail(err);
        return;
    }
    for (const Answer &a : warm)
        checkFull(a, baseRef, rep, "warm-up");
    for (const Answer &a : reads)
        checkPrefix(a, fullRef, rep);
    for (const Answer &a : before)
        checkFull(a, fullRef, rep, "before restart");
    ++rep.attempted;
    if (after.size() != before.size())
        rep.fail("no Q1-Q11 round after the restart");
    for (size_t i = 0; i < after.size(); ++i) {
        checkFull(after[i], fullRef, rep, "after restart");
        ++rep.attempted;
        if (after[i].digest != before[i].digest)
            rep.fail("digest of " + className(after[i].cls) +
                     " changed across the restart");
    }
    for (const RestartTimes &r : run.restarts) {
        checkFull(r.first, fullRef, rep, "first after restart");
        ++rep.attempted;
        if (r.docs != sh.baseDocs + ackedDocs)
            rep.fail("restart recovered " + std::to_string(r.docs) +
                     " docs, expected base + acked = " +
                     std::to_string(sh.baseDocs + ackedDocs));
    }
    ++rep.attempted;
    if (ackedDocs != insertDocs)
        rep.fail("acked " + std::to_string(ackedDocs) + " of " +
                 std::to_string(insertDocs) + " inserted docs");
}

} // namespace

bool
runWorkload(const Args &args, SpanLog &spans, Report &rep)
{
    Run run(args, spans, rep);
    if (!shapeFor(args.workload, run.sh))
        return false;
    const Shape &sh = run.sh;
    rep.perLayer = perLayerTemplate(sh.ingestDocsPer10s > 0);
    run.ids.base = 3ull << 62;
    run.dcfg.dir = args.outDir + "/data-" + sh.name + "-" +
                   std::to_string(args.seed);
    run.dcfg.fsyncPolicy = durability::FsyncPolicy::Interval;
    run.dcfg.fsyncIntervalMs = kFsyncIntervalMs;
    run.dcfg.checkpointWalBytes = kCheckpointWalBytes;

    // Inputs, before any timer.  Inserted documents continue the seed's
    // oid sequence and random stream.
    Rng rng{args.seed};
    std::string base = genNdjson(rng, 0, sh.baseDocs);
    std::string more;
    if (sh.ingestDocsPer10s > 0)
        more = genNdjson(rng, static_cast<int64_t>(sh.baseDocs),
                         run.scaled(sh.ingestDocsPer10s));

    std::string pinned = pinToCpus(sh.cpus);
    if (sh.cpus > 0 && pinned.empty()) {
        ++rep.attempted;
        rep.fail("cannot pin the run to " + std::to_string(sh.cpus) +
                 " CPUs");
        return true;
    }
    double calib = calibrateMs();
    setMetric(rep.perLayer, "host.calib_ms", calib);
    std::printf("workload %s seed %" PRIu64 " trace %d: %" PRIu64
                " base docs, %zu workers, %zu lanes, CPUs %s; "
                "host.calib_ms %.3f\n",
                sh.name.c_str(), args.seed, args.trace ? 1 : 0,
                sh.baseDocs, sh.workers, sh.lanes,
                pinned.empty() ? "all" : pinned.c_str(), calib);
    if (args.trace)
        obs::Tracer::global().enable();

    if (sh.ingestDocsPer10s > 0)
        ingestWorkload(run, base, more);
    else
        readWorkload(run, base);

    std::error_code ec;
    std::filesystem::remove_all(run.dcfg.dir, ec);
    std::printf("error_rate %.6f (%" PRIu64 " failed of %" PRIu64 ")\n",
                rep.attempted ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0,
                rep.failed, rep.attempted);
    return true;
}

} // namespace perfbench

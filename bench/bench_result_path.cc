/**
 * @file
 * The serving path of one result, stage by stage, in one process.
 *
 * For each of the paper's Q1-Q11 (the SQL perfbench's serve_mix
 * sends) over an AdaptiveEngine warmed past one change-detector
 * window, the bench times:
 *
 *   exec      sql::runStatement, as a server worker runs it
 *   digest    ResultSet::digest()
 *   encode    server::encodeRowResult less its digest and frame seal
 *             (the row bytes written from the flat slots)
 *   frame     the CRC-32 seal of the payload
 *   assemble  a client FrameAssembler fed the frame in 64 KiB reads,
 *             as Client::readFrame feeds it
 *   decode    net::decodeResult into the flat cell index
 *   destroy   freeing the decoded result and the server's RunResult
 *
 * and reports the median of --repeats runs per stage (ms), with the
 * class's rows and cells.  After timing, every class's decoded frame
 * is checked against the in-process ResultSet: digest, row count,
 * oids and every cell (strings resolved through the dictionary).  Any
 * difference aborts the bench.
 *
 *   bench_result_path [--docs N] [--seed S] [--repeats N]
 *                     [--threads N] [--json PATH]
 *
 * --threads is the executor's lane count (perfbench's serve_mix runs
 * one).  --json appends one NDJSON record per class and stage, each
 * with rss_peak_bytes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "harness.hh"
#include "net/wire.hh"
#include "server/server.hh"
#include "sql/run.hh"
#include "util/codec.hh"
#include "util/logging.hh"

using namespace dvp;

namespace
{

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
constexpr size_t kClasses = sizeof(kSql) / sizeof(kSql[0]);

enum Stage { Exec, Digest, Encode, Frame, Assemble, Decode, Destroy };
const char *const kStageName[] = {"exec",     "digest", "encode",
                                  "frame",    "assemble", "decode",
                                  "destroy"};
constexpr size_t kStages = sizeof(kStageName) / sizeof(kStageName[0]);

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point &t)
{
    Clock::time_point now = Clock::now();
    double ms = std::chrono::duration<double, std::milli>(now - t).count();
    t = now;
    return ms;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

/** What one class's last run left for the correctness check. */
struct Sample
{
    engine::ResultSet want; ///< the in-process result
    net::ResultBody body;   ///< the decoded head
    net::DecodedRows rows;  ///< the decoded rows
};

/** One pass over the serving path of @p sql; fills @p ms per stage. */
void
runOnce(adaptive::AdaptiveEngine &eng, const engine::DataSet &data,
        const char *sql, double ms[kStages], Sample *keep)
{
    Clock::time_point t = Clock::now();
    auto r = std::make_unique<sql::RunResult>(
        sql::runStatement(eng, sql, false, false));
    ms[Exec] = msSince(t);
    if (!r->ok || r->kind != sql::RunResult::Kind::Rows)
        fatal("%s: %s", sql, r->ok ? "not a row result" : r->error.c_str());
    if (keep)
        keep->want = r->rows;

    t = Clock::now();
    volatile uint64_t digest = r->rows.digest();
    (void)digest;
    ms[Digest] = msSince(t);

    net::ResultBody meta;
    meta.execNs = static_cast<uint64_t>(r->seconds * 1e9);
    meta.opStats = r->stats.summary();
    meta.columns = sql::resultColumns(data, r->query);
    meta.oids = std::move(r->rows.oids);
    meta.checksum = r->rows.checksum;
    std::string frame;
    t = Clock::now();
    if (!server::encodeRowResult(meta, r->rows, data, net::kMaxPayload,
                                 frame))
        fatal("%s: result too large", sql);
    double encode_all = msSince(t);
    volatile uint32_t crc = crc32(frame.data() + net::kHeaderBytes,
                                  frame.size() - net::kHeaderBytes);
    (void)crc;
    ms[Frame] = msSince(t);
    ms[Encode] = std::max(0.0, encode_all - ms[Digest] - ms[Frame]);

    net::FrameAssembler in;
    net::Frame f;
    constexpr size_t kRead = 65536; // client::Client's recv buffer
    // The read loop of Client::readFrame, fed from memory.
    for (size_t at = 0; !in.next(f); at += kRead) {
        if (in.error() || at >= frame.size())
            fatal("%s: frame did not reassemble", sql);
        in.feed(frame.data() + at, std::min(kRead, frame.size() - at));
    }
    if (f.type != net::FrameType::Result)
        fatal("%s: frame did not reassemble", sql);
    ms[Assemble] = msSince(t);

    auto body = std::make_unique<net::ResultBody>();
    auto rows = std::make_unique<net::DecodedRows>();
    if (!net::decodeResult(std::move(f.payload), *body, *rows))
        fatal("%s: RESULT did not decode", sql);
    ms[Decode] = msSince(t);

    if (keep) {
        keep->body = std::move(*body);
        keep->rows = std::move(*rows);
    }
    body.reset();
    rows.reset();
    r.reset();
    ms[Destroy] = msSince(t);
}

/** Abort unless @p s decodes to exactly its in-process result. */
void
check(const char *sql, const Sample &s, const engine::DataSet &data)
{
    const engine::ResultSet &want = s.want;
    if (s.body.digest != want.digest() || s.rows.size() != want.rows.size() ||
        s.body.oids != want.oids || s.body.checksum != want.checksum)
        fatal("%s: decoded digest/rows/oids differ from the in-process "
              "result (%zu vs %zu rows)",
              sql, s.rows.size(), want.rows.size());
    for (size_t r = 0; r < want.rows.size(); ++r) {
        engine::ResultRows::Row row = want.rows[r];
        net::RowView got = s.rows[r];
        if (got.size() != row.size())
            fatal("%s: row %zu has %zu cells, want %zu", sql, r,
                  got.size(), row.size());
        for (size_t c = 0; c < row.size(); ++c) {
            storage::Slot v = row[c];
            net::CellView cell = got[c];
            bool same =
                storage::isNull(v) ? cell.isNull()
                : storage::isStringSlot(v)
                    ? cell.kind() == net::CellKind::Str &&
                          cell.text() ==
                              data.dict.text(storage::decodeString(v))
                    : cell.kind() == net::CellKind::Int &&
                          cell.integer() == v;
            if (!same)
                fatal("%s: row %zu cell %zu differs", sql, r, c);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::Options::parse(argc, argv, 20000);
    bench::JsonLog jl(opt, "result_path");

    engine::DataSet data;
    {
        nobench::Config ncfg = opt.nobenchConfig();
        Rng rng{opt.seed};
        for (uint64_t i = 0; i < opt.docs; ++i)
            data.addObject(nobench::generateDoc(
                ncfg, rng, static_cast<int64_t>(i)));
    }
    adaptive::Params params;
    params.threads = opt.threads;
    adaptive::AdaptiveEngine eng(data, {}, params);

    // Warm past one change-detector window so any repartition the mix
    // triggers has landed, as perfbench does before timing.
    size_t rounds = (params.window + kClasses - 1) / kClasses + 1;
    for (size_t r = 0; r < rounds; ++r)
        for (const char *sql : kSql)
            sql::runStatement(eng, sql, false, false);
    eng.quiesce();

    std::printf("result path: %llu docs, %zu lane(s), median of %d\n",
                static_cast<unsigned long long>(opt.docs), opt.threads,
                opt.repeats);
    TablePrinter table({"class", "rows", "cells", "exec", "digest",
                        "encode", "frame", "assemble", "decode",
                        "destroy"});
    std::vector<Sample> samples(kClasses);
    double round[kStages] = {};
    for (size_t q = 0; q < kClasses; ++q) {
        std::vector<double> times[kStages];
        for (int rep = 0; rep < opt.repeats; ++rep) {
            double ms[kStages];
            runOnce(eng, data, kSql[q], ms,
                    rep + 1 == opt.repeats ? &samples[q] : nullptr);
            for (size_t s = 0; s < kStages; ++s)
                times[s].push_back(ms[s]);
        }
        const engine::ResultSet &rs = samples[q].want;
        std::string cls = "Q" + std::to_string(q + 1);
        double cells = static_cast<double>(rs.rows.slots().size());
        std::vector<std::string> line{
            cls, std::to_string(rs.rows.size()),
            std::to_string(rs.rows.slots().size())};
        jl.value("dvpdb", cls, "rows", static_cast<double>(rs.rows.size()));
        jl.value("dvpdb", cls, "cells", cells);
        for (size_t s = 0; s < kStages; ++s) {
            double m = median(times[s]);
            round[s] += m;
            line.push_back(fmt(m, 3));
            jl.value("dvpdb", cls, std::string(kStageName[s]) + "_ms", m,
                     "ms");
        }
        if (!rs.rows.empty())
            jl.value("dvpdb", cls, "exec_ns_per_row",
                     median(times[Exec]) * 1e6 /
                         static_cast<double>(rs.rows.size()),
                     "ns");
        table.addRow(line);
    }
    std::vector<std::string> total{"round", "", ""};
    for (size_t s = 0; s < kStages; ++s) {
        total.push_back(fmt(round[s], 3));
        jl.value("dvpdb", "round", std::string(kStageName[s]) + "_ms",
                 round[s], "ms");
    }
    table.addRow(total);
    bench::emit(table, "Result path per stage (ms)", opt.csv);

    for (size_t q = 0; q < kClasses; ++q)
        check(kSql[q], samples[q], data);
    std::printf("every decoded result matched its in-process "
                "ResultSet\n");
    return 0;
}

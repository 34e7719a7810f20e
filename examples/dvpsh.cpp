/**
 * @file
 * dvpsh — a tiny interactive shell over the adaptive engine.
 *
 * Loads newline-delimited JSON, accepts the Table III SQL dialect, and
 * exposes the layout machinery through backslash commands:
 *
 *   \load <file>     LOAD DATA a JSON-lines file (all or nothing)
 *   \gen <n>         ingest n synthetic NoBench documents
 *   \layout          show the current partitions
 *   \stats           show workload statistics
 *   \repartition     force a repartition from observed statistics
 *   \explain <sql>   show the bound physical plan + cache provenance
 *   \explain+ <sql>  EXPLAIN ANALYZE: execute and show operator stats
 *   \save <file>     snapshot data + layout to a binary image
 *   \open <file>     replace the session with a saved snapshot
 *   \quit
 *
 * Anything else is dispatched through sql::runStatement (the same
 * surface the network server uses); results print as a table (strings
 * decoded through the dictionary).
 *
 * SIGINT/SIGTERM exit the session cleanly: the current statement
 * finishes, the prompt loop ends, and the --metrics/--trace dumps are
 * flushed instead of the process dying mid-line.
 *
 * Usage: dvpsh [file.jsonl]        (also reads statements from stdin)
 *        (--metrics/--trace PATH dump counters and spans at exit)
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "adaptive/adaptive_engine.hh"
#include "obs/export.hh"
#include "nobench/generator.hh"
#include "persist/snapshot.hh"
#include "sql/run.hh"
#include "util/printer.hh"
#include "util/timer.hh"

using namespace dvp;

namespace
{

/**
 * Set by the SIGINT/SIGTERM handler; the prompt loop polls it so an
 * interrupt ends the session between statements, not mid-line.
 */
volatile std::sig_atomic_t g_interrupted = 0;

void
onSignal(int)
{
    g_interrupted = 1;
}

/** Install without SA_RESTART so a blocked getline returns. */
void
installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

/**
 * Split one input line into statements at top-level semicolons.
 * Quote-aware: ';' inside a single- or double-quoted literal (with
 * doubled-quote escapes, matching the SQL lexer) never splits, so
 * `INSERT INTO nobench VALUES ('{"a": 1}'); SELECT ...` round-trips.
 * Empty segments are dropped; a line with no semicolon comes back as
 * one statement.
 */
std::vector<std::string>
splitStatements(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    char quote = 0;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quote != 0) {
            if (c == quote) {
                if (i + 1 < line.size() && line[i + 1] == quote) {
                    cur += c;
                    cur += c;
                    ++i;
                    continue;
                }
                quote = 0;
            }
            cur += c;
            continue;
        }
        if (c == '\'' || c == '"') {
            quote = c;
            cur += c;
            continue;
        }
        if (c == ';') {
            size_t b = cur.find_first_not_of(" \t");
            if (b != std::string::npos)
                out.push_back(cur.substr(b));
            cur.clear();
            continue;
        }
        cur += c;
    }
    size_t b = cur.find_first_not_of(" \t");
    if (b != std::string::npos)
        out.push_back(cur.substr(b));
    return out;
}

/** Shell state: one DataSet + one adaptive engine over it. */
class Shell
{
  public:
    Shell()
    {
        // Start with an empty catalog and a trivial layout; the first
        // \load or \gen triggers a real partitioning.
        data.catalog.ensure("$empty");
        rebuild();
    }

    /**
     * Rebuild the engine when ingest introduced attributes the engine
     * was not partitioned for (schema-less data: new attribute paths
     * can appear at any time).  Ingest already stores them, each in a
     * singleton partition; the shell re-runs the partitioner so they
     * are grouped like every other attribute.
     */
    void
    ensureFresh()
    {
        if (data.catalog.attrCount() == built_attrs)
            return;
        rebuild();
    }

    void
    rebuild()
    {
        std::vector<dvp::engine::Query> reps;
        if (engine)
            reps = engine->workloadStats().representatives();
        engine = std::make_unique<adaptive::AdaptiveEngine>(
            data, reps, params());
        built_attrs = data.catalog.attrCount();
    }

    /** \load verb: run LOAD DATA for @p path (all-or-nothing). */
    void
    load(const std::string &path)
    {
        std::string quoted; // SQL literal: a quote doubles itself
        for (char c : path) {
            if (c == '\'')
                quoted += c;
            quoted += c;
        }
        execute("LOAD DATA LOCAL INFILE '" + quoted +
                "' REPLACE INTO TABLE t");
    }

    void
    generate(uint64_t n)
    {
        nobench::Config cfg;
        cfg.numDocs = data.docs.size() + n;
        Timer t;
        for (uint64_t i = 0; i < n; ++i)
            engine->ingest({json::flatten(nobench::generateDoc(
                cfg, gen_rng, static_cast<int64_t>(data.docs.size())))});
        std::printf("generated %llu NoBench documents in %.1f ms\n",
                    static_cast<unsigned long long>(n),
                    t.milliseconds());
    }

    void
    showLayout()
    {
        ensureFresh();
        auto db = engine->snapshot();
        const layout::Layout &l = db->layout();
        std::printf("%zu partitions over %zu attributes, %zu docs, "
                    "%.2f MB (%.2f MB NULLs)\n",
                    l.partitionCount(), l.attrCount(), db->docCount(),
                    db->storageBytes() / 1048576.0,
                    db->nullBytes() / 1048576.0);
        for (size_t p = 0; p < l.partitionCount() && p < 20; ++p) {
            const auto &attrs =
                l.partition(static_cast<layout::PartIdx>(p));
            std::printf("  p%-3zu (%4zu rows)", p,
                        db->table(p).rows());
            for (size_t i = 0; i < attrs.size() && i < 6; ++i)
                std::printf(" %s", data.catalog.name(attrs[i]).c_str());
            if (attrs.size() > 6)
                std::printf(" ... (+%zu)", attrs.size() - 6);
            std::printf("\n");
        }
        if (l.partitionCount() > 20)
            std::printf("  ... (+%zu more partitions)\n",
                        l.partitionCount() - 20);
    }

    void
    showStats()
    {
        const auto &ws = engine->workloadStats();
        std::printf("%llu queries since the last repartition; %llu "
                    "repartitions so far\n",
                    static_cast<unsigned long long>(ws.executions()),
                    static_cast<unsigned long long>(
                        engine->adaptation().repartitions));
        for (const auto &[name, t] : ws.templates())
            std::printf("  %-10s x%-6llu avg %.3f ms  sel %.4f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.executions),
                        t.meanSeconds() * 1e3, t.meanSelectivity());
    }

    void
    execute(const std::string &text)
    {
        ensureFresh();
        sql::RunResult r =
            sql::runStatement(*engine, text, /*allowLoad=*/true);
        if (!r.ok) {
            std::printf("error: %s\n", r.error.c_str());
            return;
        }
        if (r.kind == sql::RunResult::Kind::Message) {
            std::printf("%s", r.message.c_str());
            if (!r.message.empty() && r.message.back() != '\n')
                std::printf("\n");
            return;
        }
        printResult(r.query, r.rows);
        std::printf("%zu row(s) in %.3f ms\n", r.rows.rowCount(),
                    r.seconds * 1e3);
    }

    void
    repartition()
    {
        // Force a synchronous repartition from whatever statistics
        // exist by rebuilding the engine parameters.
        auto reps = engine->workloadStats().representatives();
        if (reps.empty()) {
            std::printf("no observed queries yet; run some SQL "
                        "first\n");
            return;
        }
        Timer t;
        core::Partitioner partitioner(data, reps);
        core::SearchResult res = partitioner.refine(
            engine->snapshot()->layout());
        std::printf("refined to %zu partitions in %.2f s "
                    "(cost %.4f -> %.4f); rebuilding...\n",
                    res.layout.partitionCount(), res.seconds,
                    res.initialCost, res.finalCost);
        engine = std::make_unique<adaptive::AdaptiveEngine>(
            data, reps, params());
        std::printf("done in %.2f s total\n", t.seconds());
    }

    void
    saveSnapshot(const std::string &path)
    {
        ensureFresh();
        layout::Layout l = engine->snapshot()->layout();
        std::string err = persist::save(path, data, &l);
        if (!err.empty())
            std::printf("error: %s\n", err.c_str());
        else
            std::printf("saved %zu docs + layout to '%s'\n",
                        data.docs.size(), path.c_str());
    }

    void
    openSnapshot(const std::string &path)
    {
        persist::LoadResult r = persist::load(path);
        if (!r.ok) {
            std::printf("error: %s\n", r.error.c_str());
            return;
        }
        engine.reset(); // drop tables referencing the old DataSet
        data = std::move(r.data);
        rebuild();
        if (r.layout)
            std::printf("loaded %zu docs (snapshot carried a %zu-"
                        "partition layout; re-partitioned fresh)\n",
                        data.docs.size(), r.layout->partitionCount());
        else
            std::printf("loaded %zu docs\n", data.docs.size());
    }

  private:
    static adaptive::Params
    params()
    {
        adaptive::Params p;
        p.background = false;
        return p;
    }

    void
    printResult(const dvp::engine::Query &q,
                const dvp::engine::ResultSet &rs)
    {
        TablePrinter out(sql::resultColumns(data, q));

        auto cell = [&](storage::Slot s) -> std::string {
            if (storage::isNull(s))
                return "NULL";
            if (storage::isStringSlot(s))
                return data.dict.text(storage::decodeString(s));
            return std::to_string(s);
        };

        size_t limit = 20;
        for (size_t r = 0; r < rs.rowCount() && r < limit; ++r) {
            std::vector<std::string> row;
            if (q.selectAll &&
                q.kind != dvp::engine::QueryKind::Join &&
                q.kind != dvp::engine::QueryKind::Aggregate) {
                row.push_back(std::to_string(rs.oids[r]));
                std::string attrs;
                int shown = 0;
                for (size_t c = 0;
                     c < rs.rows[r].size() && shown < 6; ++c) {
                    if (storage::isNull(rs.rows[r][c]))
                        continue;
                    attrs += data.catalog.name(
                                 static_cast<storage::AttrId>(c)) +
                             "=" + cell(rs.rows[r][c]) + " ";
                    ++shown;
                }
                row.push_back(attrs + "...");
            } else {
                for (storage::Slot s : rs.rows[r])
                    row.push_back(cell(s));
            }
            out.addRow(std::move(row));
        }
        if (rs.rowCount() > 0)
            std::printf("%s", out.ascii().c_str());
        if (rs.rowCount() > limit)
            std::printf("  ... (+%zu more rows)\n",
                        rs.rowCount() - limit);
    }

    dvp::engine::DataSet data;
    std::unique_ptr<adaptive::AdaptiveEngine> engine;
    size_t built_attrs = 0;
    Rng gen_rng{20260707};
};

} // namespace

int
main(int argc, char **argv)
{
    bool dumps_armed = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--metrics" ||
            std::string(argv[i]) == "--trace")
            dumps_armed = true;
    obs::DumpScope obs_dump = obs::scanArgs(argc, argv);
    installSignalHandlers();
    Shell shell;
    if (argc > 1)
        shell.load(argv[1]);

    std::printf("dvpsh — type SQL, or \\help\n");
    std::string line;
    while (!g_interrupted) {
        std::printf("dvp> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, line))
            break;
        // Trim.
        size_t b = line.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        line = line.substr(b);

        if (line[0] == '\\') {
            std::istringstream cmd(line.substr(1));
            std::string verb;
            cmd >> verb;
            if (verb == "quit" || verb == "q")
                break;
            if (verb == "help") {
                std::printf(
                    "  \\load <file>   \\gen <n>   \\layout   \\stats\n"
                    "  \\repartition   \\explain <sql>   "
                    "\\explain+ <sql> (EXPLAIN ANALYZE)\n"
                    "  \\save <file>   \\open <file>   \\quit\n");
            } else if (verb == "load") {
                std::string path;
                cmd >> path;
                shell.load(path);
            } else if (verb == "gen") {
                uint64_t n = 1000;
                cmd >> n;
                shell.generate(n);
            } else if (verb == "layout") {
                shell.showLayout();
            } else if (verb == "stats") {
                shell.showStats();
            } else if (verb == "repartition") {
                shell.repartition();
            } else if (verb == "save") {
                std::string path;
                cmd >> path;
                shell.saveSnapshot(path);
            } else if (verb == "open") {
                std::string path;
                cmd >> path;
                shell.openSnapshot(path);
            } else if (verb == "explain") {
                std::string rest;
                std::getline(cmd, rest);
                shell.execute("EXPLAIN " + rest);
            } else if (verb == "explain+") {
                std::string rest;
                std::getline(cmd, rest);
                shell.execute("EXPLAIN ANALYZE " + rest);
            } else {
                std::printf("unknown command; try \\help\n");
            }
            continue;
        }
        // One line may carry several statements separated by top-level
        // semicolons (quote-aware, so JSON INSERT bodies pass through).
        for (const std::string &stmt : splitStatements(line)) {
            shell.execute(stmt);
            if (g_interrupted)
                break;
        }
    }
    if (g_interrupted)
        std::printf("\ninterrupt — exiting cleanly%s\n",
                    dumps_armed ? " (flushing metrics/trace dumps)"
                                : "");
    return 0;
}

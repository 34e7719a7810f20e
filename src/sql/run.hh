/**
 * @file
 * One statement-dispatch surface over the adaptive engine.
 *
 * runStatement() is the single path from SQL text to an outcome —
 * parse, classify (query / EXPLAIN / LOAD / INSERT / CHECKPOINT),
 * execute, and map errors — shared by the interactive shell
 * (examples/dvpsh.cpp) and the network session handler (src/server).
 * An error class or statement kind added here shows up in both with
 * identical wording, and both front ends get identical write
 * semantics: LOAD DATA and INSERT each make one
 * AdaptiveEngine::ingest call, all-or-nothing, logged before acked.
 */

#ifndef DVP_SQL_RUN_HH
#define DVP_SQL_RUN_HH

#include <optional>
#include <string>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "engine/load.hh"
#include "engine/query.hh"

namespace dvp::sql
{

/** Result of one statement. */
struct RunResult
{
    /** Error classes front ends map to their own surfaces. */
    enum class Error
    {
        None,        ///< ok
        Parse,       ///< SQL did not parse (message has the offset)
        Exec,        ///< statement failed while executing
        Unsupported, ///< statement kind this front end refuses (LOAD)
        ReadOnly,    ///< writes (INSERT) disabled on this connection
    };

    /** What a successful statement produced. */
    enum class Kind
    {
        Rows,    ///< a result set (SELECT)
        Message, ///< text only (EXPLAIN, LOAD/INSERT/CHECKPOINT ack)
    };

    bool ok = false;
    Error errorKind = Error::None;
    std::string error; ///< when !ok

    Kind kind = Kind::Message;
    engine::Query query;    ///< parsed query (Rows and EXPLAIN)
    engine::ResultSet rows; ///< Kind::Rows payload
    std::string message;    ///< Kind::Message payload
    double seconds = 0; ///< execution wall time (Rows, EXPLAIN
                        ///< ANALYZE, LOAD)

    /**
     * Per-query execution statistics, filled whenever the statement
     * actually executed (SELECT and EXPLAIN ANALYZE) — the operator
     * summary front ends ship over the wire and the slow-query log
     * records.  hasStats distinguishes a real execution from the
     * zero-initialized default (plain EXPLAIN, LOAD).
     */
    engine::QueryStats stats;
    bool hasStats = false;

    /** Parse/encode breakdown of a LOAD DATA that read its file. */
    std::optional<engine::LoadStats> load;
};

/**
 * Parse and run one statement against @p eng.  Queries execute through
 * AdaptiveEngine::execute (feeding workload statistics and possibly
 * triggering a repartition); EXPLAIN renders the bound plan with
 * plan-cache provenance under the engine's read lock.  LOAD DATA reads
 * the named JSON-lines file (a path local to this process), tape-parses
 * it on eng.threads() lanes and, only when every line parsed, appends
 * all of it with one AdaptiveEngine::ingest call; INSERT appends its
 * documents the same way.  Either ack message carries the appended
 * count; a failed WAL append or sync is an Exec error ("… not
 * durable"), never an ack.  @p allowLoad false maps LOAD to an
 * Unsupported error and @p allowInsert false maps INSERT to a
 * ReadOnly error, both without touching the engine.
 */
RunResult runStatement(adaptive::AdaptiveEngine &eng,
                       const std::string &text, bool allowLoad = false,
                       bool allowInsert = true);

/**
 * Column headers for @p q's result rows, resolved against @p data's
 * catalog (Aggregate -> [group, count], Join -> [left oid, right oid],
 * SELECT * -> [oid, non-null attrs]).  Shared by every front end that
 * renders result sets.
 */
std::vector<std::string> resultColumns(const engine::DataSet &data,
                                       const engine::Query &q);

} // namespace dvp::sql

#endif // DVP_SQL_RUN_HH

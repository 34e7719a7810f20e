/**
 * @file
 * One statement-dispatch surface over the adaptive engine.
 *
 * runStatement() is the single path from SQL text to an outcome —
 * parse, classify (query / EXPLAIN / LOAD / INSERT / CHECKPOINT),
 * execute, and map errors — shared by the interactive shell
 * (examples/dvpsh.cpp) and the network session handler (src/server).  Both front ends used to duplicate
 * this dispatch; keeping it here means an error class or statement
 * kind added once shows up everywhere with identical wording.
 *
 * LOAD DATA is environment-specific (a shell reads the user's file, a
 * server may refuse or read server-local paths), so the caller passes
 * a LoadHandler; without one, LOAD maps to an Unsupported error.
 */

#ifndef DVP_SQL_RUN_HH
#define DVP_SQL_RUN_HH

#include <functional>
#include <string>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "engine/query.hh"

namespace dvp::sql
{

/** Outcome of a LoadHandler invocation. */
struct LoadOutcome
{
    std::string error;   ///< non-empty = the load failed
    std::string message; ///< human summary on success
};

/** Environment hook executing LOAD DATA for @p path. */
using LoadHandler = std::function<LoadOutcome(const std::string &path)>;

/** Result of one statement. */
struct RunResult
{
    /** Error classes front ends map to their own surfaces. */
    enum class Error
    {
        None,        ///< ok
        Parse,       ///< SQL did not parse (message has the offset)
        Exec,        ///< statement failed while executing
        Unsupported, ///< statement kind this front end refuses
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
    double seconds = 0;     ///< execution wall time (Rows only)

    /**
     * Per-query execution statistics, filled whenever the statement
     * actually executed (SELECT and EXPLAIN ANALYZE) — the operator
     * summary front ends ship over the wire and the slow-query log
     * records.  hasStats distinguishes a real execution from the
     * zero-initialized default (plain EXPLAIN, LOAD).
     */
    engine::QueryStats stats;
    bool hasStats = false;
};

/**
 * Parse and run one statement against @p eng.  Queries execute through
 * AdaptiveEngine::execute (feeding workload statistics and possibly
 * triggering a repartition); EXPLAIN renders the bound plan with
 * plan-cache provenance under the engine's read lock; LOAD dispatches
 * to @p load; INSERT appends to the engine's partitions
 * (AdaptiveEngine::ingestFlatBatch) — the ack message carries the
 * appended count, the post-append document count, and the epoch.
 * @p allowInsert false maps INSERT to a ReadOnly error without
 * touching the engine.
 */
RunResult runStatement(adaptive::AdaptiveEngine &eng,
                       const std::string &text,
                       const LoadHandler &load = {},
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

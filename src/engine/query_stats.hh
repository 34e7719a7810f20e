/**
 * @file
 * Per-query execution statistics (EXPLAIN ANALYZE, wire operator
 * summaries, the slow-query log).
 *
 * A QueryStats is filled by Executor::run from the same per-lane
 * counters that feed the dvp_* metrics registry — both
 * views read the identical merged Exec fields, so the per-query numbers
 * reconcile exactly with the exported Prometheus counter deltas for
 * that query.  Work counters (rows, matches, blocks, compressed-eval
 * paths) are deterministic in the block/morsel partition and therefore
 * identical at every thread count; wall times and the morsel count are
 * measurements of a particular run and are excluded from determinism
 * guarantees.
 */

#ifndef DVP_ENGINE_QUERY_STATS_HH
#define DVP_ENGINE_QUERY_STATS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dvp::engine
{

/** How Executor::run obtained the physical plan. */
enum class PlanSource : uint8_t
{
    AdHoc = 0,     ///< no cache attached: private bind
    CacheHit = 1,  ///< served fresh from the plan cache
    CacheMiss = 2, ///< cache attached but had to (re)bind
};

/** Stable lowercase name of @p s (renders and metric labels). */
const char *planSourceName(PlanSource s);

/** Execution statistics for one query. */
struct QueryStats
{
    // -- work counters (thread-count deterministic) --------------------
    uint64_t rowsScanned = 0;      ///< rows visited by scan phases
    uint64_t partitionTouches = 0; ///< partitions hit on retrieval
    uint64_t blocksScanned = 0;    ///< zone-map blocks scanned
    uint64_t blocksSkipped = 0;    ///< zone-map blocks skipped
    uint64_t matches = 0;          ///< WHERE-clause matching oids
    uint64_t rowsOut = 0;          ///< result rows returned

    /** Compressed-eval answers by kernels::CompressedPath value. */
    uint64_t compressedEval[4] = {0, 0, 0, 0};

    uint64_t compressedEvalTotal() const
    {
        return compressedEval[0] + compressedEval[1] +
               compressedEval[2] + compressedEval[3];
    }

    // -- per-run measurements (vary run to run) ------------------------
    uint64_t execNs = 0;     ///< whole-query wall time
    uint64_t planNs = 0;     ///< bind / plan-cache lookup
    uint64_t filterNs = 0;   ///< WHERE scan (join build-side included)
    uint64_t retrieveNs = 0; ///< index retrieval of matches
    uint64_t projectNs = 0;  ///< merge-scan projection
    uint64_t joinNs = 0;     ///< self-join build + probe + materialize
    uint64_t morsels = 0;    ///< morsel kernels dispatched (0 = serial)
    size_t threads = 1;      ///< lane cap the query ran under

    // -- provenance ----------------------------------------------------
    PlanSource planSource = PlanSource::AdHoc;
    uint64_t planEpoch = 0;         ///< Database::epoch() executed on
    uint64_t layoutFingerprint = 0; ///< layout identity of that epoch

    /**
     * Flat key/value rendering for wire transport (RESULT operator
     * summaries, slow-query records).  Key order is fixed, so decoded
     * summaries diff cleanly across requests.
     */
    std::vector<std::pair<std::string, uint64_t>> summary() const;
};

} // namespace dvp::engine

#endif // DVP_ENGINE_QUERY_STATS_HH

/**
 * @file
 * The query executor for partitioned (row / column / hybrid / DVP /
 * Hyrise) databases.
 *
 * Execution strategy (paper §IV "Indexing, Scanning, Insert"):
 *  - projections merge-scan the involved partition tables simultaneously
 *    by their sorted oid columns (no joins needed);
 *  - selections scan the condition column inside its owning partition
 *    and, for each match, retrieve the selected attributes from the
 *    other partitions through the sorted-oid primary-key index;
 *  - rows whose projected attributes are all NULL are not emitted, so
 *    result sets are identical across layouts (sparse omission);
 *  - aggregation runs the selection part first, folding each retrieved
 *    match into its group's count instead of materializing a row;
 *  - the self-join builds from matching left records (a hash table on
 *    the traced path, a key-sorted array on the timing path; same
 *    pairs, same order) and probes with a scan of the right join
 *    column.
 *
 * Morsel-driven parallelism: with threads > 1 the Project / Select /
 * Aggregate scan phases split into fixed-size oid-range morsels of the
 * driving table (the largest involved partition) and execute on the
 * shared work-stealing pool; each worker lane runs on a forked tracer
 * and produces an ordered partial ResultSet.  `= ANY` scans split by
 * (table, whole-block range), the join probe by row range, and a
 * SELECT * of few matches and the join's materialize by partition
 * (DESIGN.md §9).  Scans below two morsels of live rows stay serial.  Partials concatenate in
 * morsel order (so rows come back in exactly the serial order) and the
 * XOR cell checksum merges order-independently, making results
 * bit-identical at every thread count.  The simulation overload stays
 * pinned to the serial path regardless of the thread knob: the paper's
 * cache/TLB figures (Figs. 6-7) model one core observing one exact
 * access sequence, which no parallel interleaving reproduces.
 */

#ifndef DVP_ENGINE_EXECUTOR_HH
#define DVP_ENGINE_EXECUTOR_HH

#include "engine/database.hh"
#include "engine/plan.hh"
#include "engine/plan_cache.hh"
#include "engine/query.hh"
#include "engine/query_stats.hh"
#include "engine/tracer.hh"

namespace dvp::engine
{

/**
 * Executes queries against one Database.
 *
 * Execution is a bind -> execute pipeline: run(q) first obtains a
 * PhysicalPlan — from the attached PlanCache when one is set (and
 * fresh), by calling bindPlan() otherwise — then walks the bound
 * operators.  The cached hot path performs no catalog or attribute-
 * index lookups at all.
 *
 * An Executor takes no lock.  Binding reads the live catalog and a run
 * reads the tables, so over a Database an AdaptiveEngine serves, the
 * caller must keep writers out for the whole run (the engine lock held
 * shared, as AdaptiveEngine::execute and EXPLAIN do).
 */
class Executor
{
  public:
    /**
     * Driving-table rows per morsel.  ~2048 rows x a handful of 8-byte
     * slots keeps a morsel well inside L2 while leaving dozens of
     * morsels to steal at bench scale (100k docs -> ~49 per scan).
     */
    static constexpr size_t kDefaultMorselRows = 2048;

    explicit Executor(Database &db, size_t threads = 1)
        : db(&db), threads_(threads == 0 ? 1 : threads)
    {
    }

    /** Max worker lanes (including the caller) a query may occupy. */
    size_t threads() const { return threads_; }
    void setThreads(size_t t) { threads_ = t == 0 ? 1 : t; }

    /** Morsel granularity override (tests use small tables). */
    void setMorselRows(size_t rows)
    {
        morsel_rows = rows == 0 ? kDefaultMorselRows : rows;
    }
    size_t morselRows() const { return morsel_rows; }

    /**
     * Toggle the vectorized predicate scan (engine/kernels.hh) with
     * zone-map block skipping.  On by default; off falls back to the
     * original row-at-a-time loop, which tests and benches use as the
     * oracle/baseline.  Either way results are bit-identical; the knob
     * only applies to the timing path — the simulation overload always
     * runs the scalar row loop (see the file comment).
     */
    void setVectorized(bool on) { vectorized_ = on; }
    bool vectorized() const { return vectorized_; }

    /**
     * Serve plans from @p cache (owned by the caller; may be shared by
     * many executors).  Null detaches.  Without a cache every run()
     * binds a private plan.
     */
    void setPlanCache(PlanCache *cache) { plan_cache = cache; }

    /**
     * Execute on the timing path (no simulation overhead).  @p stats,
     * when non-null, receives per-query execution statistics filled
     * from the same merged lane counters that feed the dvp_* metrics
     * (see query_stats.hh), so EXPLAIN ANALYZE numbers reconcile
     * exactly with the exported counter deltas.
     */
    ResultSet run(const Query &q, QueryStats *stats = nullptr);

    /**
     * Execute while feeding every table access into @p mh.  Always
     * runs the serial path (see file comment) so simulated counters
     * are exact and independent of the thread knob.
     */
    ResultSet run(const Query &q, perf::MemoryHierarchy &mh);

  private:
    /**
     * Plan for @p q: cached when possible, else bound into @p local.
     * @p cache_hit, when non-null, receives whether the plan came from
     * the cache (false when no cache is attached).
     */
    const PhysicalPlan *
    bound(const Query &q, std::shared_ptr<const PhysicalPlan> &keep,
          PhysicalPlan &local, bool *cache_hit = nullptr);

    Database *db;
    size_t threads_;
    size_t morsel_rows = kDefaultMorselRows;
    bool vectorized_ = true;
    PlanCache *plan_cache = nullptr;
};

} // namespace dvp::engine

#endif // DVP_ENGINE_EXECUTOR_HH

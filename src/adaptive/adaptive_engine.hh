/**
 * @file
 * The adaptive engine: DVP's dynamic side (paper §IV, §VI-D).
 *
 * Wraps a DataSet, the statistics collector, the change detector and
 * the partitioner.  Queries execute against the current Database; every
 * execution feeds the statistics.  When the change detector flags a
 * workload shift, the engine repartitions: the DVP partitioner refines
 * the *current* layout under the recently observed workload, new tables
 * are built and bulk-populated on a background thread (bound away from
 * the query path), documents ingested meanwhile are batched and caught
 * up, and the engine switches to the new tables through an atomic
 * swap — queries never observe a partial layout and no downtime occurs.
 *
 * Ingest is the paper's insert (§IV): each document is appended to the
 * partitions of the current Database in place.  One writer-preferring
 * reader/writer lock (db_mutex) orders it against queries: a query
 * holds it shared across bind and run, an ingest batch and the swap
 * hold it exclusive (DESIGN.md §16).
 *
 * A synchronous mode (Params::background = false) performs the same
 * repartition inline, for deterministic tests.
 */

#ifndef DVP_ADAPTIVE_ADAPTIVE_ENGINE_HH
#define DVP_ADAPTIVE_ADAPTIVE_ENGINE_HH

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "durability/manager.hh"
#include "dvp/partitioner.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/query.hh"
#include "stats/change_detector.hh"
#include "stats/workload_stats.hh"
#include "util/rwlock.hh"

namespace dvp::adaptive
{

/** Adaptive-engine configuration. */
struct Params
{
    core::SearchParams search;

    /** Change-detector window (queries) and L1 threshold. */
    size_t window = 100;
    double changeThreshold = 0.5;

    /** Repartition on a background thread (paper behaviour). */
    bool background = true;

    /** Master switch; off = run the initial layout forever. */
    bool adapt = true;

    /** Worker lanes per query (see engine::Executor); 1 = serial. */
    size_t threads = 1;

    /** Driving-table rows per morsel; 0 = the executor's default. */
    size_t morselRows = 0;

    /**
     * Build every Database — the initial one and every repartition
     * swap's — with compressed sealed blocks (engine::Database's
     * compress flag), so the footprint reduction survives adaptation.
     */
    bool compress = false;
};

/**
 * Repartition bookkeeping for reports and tests.
 *
 * Every field is atomic because readers poll these counters from the
 * query thread while the background repartition thread writes them
 * (previously plain fields — a data race, even if a benign-looking
 * one).  Loads/stores are relaxed via the defaulted conversions; the
 * counters are monotonic bookkeeping, not synchronization.
 */
struct AdaptationStats
{
    std::atomic<uint64_t> repartitions{0};
    std::atomic<uint64_t> changesDetected{0};
    std::atomic<uint64_t> queriesDuringRepartition{0};
    std::atomic<double> lastRepartitionSeconds{0};
    std::atomic<double> lastPartitionerSeconds{0};
    std::atomic<size_t> lastLayoutTables{0};
};

/**
 * One adaptive layout decision (the initial bind or a repartition),
 * kept in a bounded in-memory ring for audit: what triggered it, the
 * cost-model verdict the search reached, the layout it chose and what
 * the swap cost.  Served over the STATS wire exchange and dumped by
 * dvpd --audit.
 */
struct AuditRecord
{
    uint64_t seq = 0;        ///< decision number, 1-based, monotonic
    std::string trigger;     ///< query that tripped the detector
    double initialCost = 0;  ///< cost model: incumbent layout
    double finalCost = 0;    ///< cost model: chosen layout
    uint64_t iterations = 0; ///< search iterations executed
    uint64_t moves = 0;      ///< attribute migrations applied
    uint64_t tables = 0;     ///< partition tables in the chosen layout
    uint64_t layoutFingerprint = 0; ///< chosen layout identity
    uint64_t partitionerNs = 0;     ///< refine/search wall time
    uint64_t buildNs = 0;           ///< bulk table build wall time
    uint64_t swapNs = 0;            ///< catch-up + pointer swap time
    uint64_t docsCaughtUp = 0;      ///< docs ingested during the build
    /** Docs ingested since the previous layout decision. */
    uint64_t deltaFolded = 0;
};

/** Acknowledgement for an ingest batch (surfaced in INSERT acks). */
struct IngestAck
{
    size_t count = 0;     ///< documents appended by this call
    size_t totalDocs = 0; ///< engine document count after the append
    uint64_t epoch = 0;   ///< epoch of the Database appended to
    int64_t lastOid = -1; ///< oid of the last appended document
    /**
     * Non-empty when durable logging failed, so the statement must be
     * reported as failed instead of acknowledged (log-before-ack).  A
     * failed log append appends nothing (count stays 0); a failed sync
     * leaves the documents in memory but NOT guaranteed recoverable.
     */
    std::string walError;
};

/**
 * Durably recovered layout state for AdaptiveEngine::restore(): the
 * committed layout, its epoch, and how many documents that layout was
 * bulk-built over (the rest were appended after it was committed).
 */
struct Restore
{
    layout::Layout layout;
    uint64_t epoch = 0;
    uint64_t baseDocs = 0;
};

/** The engine. */
class AdaptiveEngine
{
  public:
    /**
     * @param data     the (mutable, owned-elsewhere) data set
     * @param initial  workload description used for the first layout
     */
    AdaptiveEngine(engine::DataSet &data,
                   const std::vector<engine::Query> &initial,
                   Params params = {});

    /**
     * Rebuild an engine from durably recovered state: the partitions
     * are bulk-built from docs[0, baseDocs) under the committed layout
     * (no partitioner run), the epoch is adopted verbatim, and
     * docs[baseDocs, ...) are appended the way ingest appends them —
     * exactly the state the pre-crash process was serving.  A static
     * factory rather than a constructor so existing `AdaptiveEngine
     * e(data, {}, params)` call sites stay unambiguous.
     */
    static std::unique_ptr<AdaptiveEngine>
    restore(engine::DataSet &data, Restore r, Params params = {});

    ~AdaptiveEngine();

    AdaptiveEngine(const AdaptiveEngine &) = delete;
    AdaptiveEngine &operator=(const AdaptiveEngine &) = delete;

    /**
     * Execute one query, record its statistics, and possibly trigger a
     * repartition.  Safe to call from several threads, concurrently
     * with ingest and one in-flight background repartition; the query
     * binds and runs under the shared engine lock on the caller's
     * thread.  @p stats, when non-null, receives per-query execution
     * statistics (see engine/query_stats.hh).
     */
    engine::ResultSet execute(const engine::Query &q,
                              engine::QueryStats *stats = nullptr);

    /**
     * Ingest a batch of flattened documents (json::flatten, or the
     * tape parser's flat form): under one exclusive engine lock, log
     * the batch to the WAL (when durable), give every attribute the
     * layout lacks a singleton partition, and append each document to
     * the current Database's partitions in order.  The next query sees
     * them.  This is the engine's only write entry: INSERT, LOAD DATA
     * and every programmatic caller go through it.
     */
    IngestAck ingest(const std::vector<std::vector<json::FlatAttr>> &docs);

    /**
     * The current Database (shared; stays alive across swaps).  Ingest
     * grows it and its DataSet in place, so reading its tables, layout
     * or data() while ingest may run needs read() instead.
     */
    std::shared_ptr<engine::Database> snapshot() const;

    /**
     * Run @p fn on the current Database under the shared engine lock:
     * no ingest or swap runs until it returns.  Everything that reads
     * the live layout or DataSet beside ingest does it this way:
     * statement parse, result encode, EXPLAIN and STATS.  @p fn must
     * not call back into the engine (the lock is not recursive).
     */
    template <class Fn>
    auto
    read(Fn &&fn) const
    {
        std::shared_lock<RwLock> lock(db_mutex);
        return fn(static_cast<const engine::Database &>(*db));
    }

    /** Wait for any in-flight background repartition to finish. */
    void quiesce();

    const AdaptationStats &adaptation() const { return adapt_stats; }
    const stats::WorkloadStats &workloadStats() const { return wstats; }

    /**
     * The adaptive-decision audit ring, oldest first.  Record 1 is the
     * initial layout bind; each repartition appends one record.  The
     * ring is bounded (kAuditCapacity) so a long-running server keeps
     * only the most recent decisions.
     */
    std::vector<AuditRecord> auditTrail() const;

    /** Ring capacity: decisions retained by auditTrail(). */
    static constexpr size_t kAuditCapacity = 64;

    /**
     * Execution knobs from Params, applied uniformly to every executor
     * the engine creates.
     */
    size_t threads() const { return prm.threads == 0 ? 1 : prm.threads; }
    size_t morselRows() const { return prm.morselRows; }

    /**
     * The engine's plan cache.  Entries are keyed by template signature
     * and epoch-stamped, so the atomic swap a repartition performs
     * invalidates every cached plan for free (see plan_cache.hh).
     */
    engine::PlanCache &planCache() { return plan_cache; }
    const engine::PlanCache &planCache() const { return plan_cache; }

    /**
     * Attach a durability manager: every ingest batch is WAL-logged
     * before it is acknowledged and every layout swap writes a Swap
     * record; the manager's checkpoint cut provider is bound to
     * checkpointCut().  Call once, before serving traffic.
     */
    void setDurability(durability::Manager *dur);

    /** The attached durability manager; null when running in-memory. */
    durability::Manager *durability() const { return dur_; }

    /**
     * A consistent checkpoint cut: a private copy of the data set
     * plus {layout, epoch, baseDocs, walLsn} taken under the shared
     * engine lock, so no ingest runs and the WAL position exactly
     * covers the copied documents.  The pause for writers is the copy
     * itself — the same order of stall as the repartition snapshot,
     * and far shorter than a blocking serialize-to-disk would be.
     */
    durability::CheckpointCut checkpointCut();

  private:
    struct RestoreTag
    {
    };
    AdaptiveEngine(RestoreTag, engine::DataSet &data, Restore r,
                   Params params);
    void maybeRepartition(const std::string &trigger);
    void repartitionNow(std::vector<engine::Query> workload,
                        std::string trigger);
    void pushAudit(AuditRecord rec);
    /**
     * Cover the catalog, then append data->docs[first, end) to the
     * current Database (db_mutex held exclusive, or the engine not yet
     * shared).
     */
    void appendDocs(size_t first);

    engine::DataSet *data;
    Params prm;
    durability::Manager *dur_ = nullptr;

    /**
     * The engine lock.  Shared: a statement's parse, a query's bind +
     * run, a result's encode, EXPLAIN, STATS, checkpoint cuts and the
     * repartition's document copy.  Exclusive: an ingest batch (doc
     * encode, table append, WAL log) and the repartition swap.  It is
     * the only lock over the DataSet too: every writer of the catalog,
     * dictionary and docs holds it exclusive.  Lock order: db_mutex,
     * then detector_mutex.
     */
    mutable RwLock db_mutex;
    std::shared_ptr<engine::Database> db;
    engine::PlanCache plan_cache;

    /**
     * Guards the statistics collector and change detector.  execute()
     * is safe to call from several threads at once (each call runs the
     * query on its own snapshot) and concurrently with a background
     * repartition resetting the collectors.
     */
    mutable std::mutex detector_mutex;
    stats::WorkloadStats wstats;
    stats::ChangeDetector detector;
    AdaptationStats adapt_stats;

    mutable std::mutex audit_mutex;
    std::deque<AuditRecord> audit_ring;
    uint64_t audit_seq = 0;
    size_t decision_docs = 0; ///< docCount at the last decision (db_mutex)

    /**
     * Guards worker: a query or ingest thread spawns it while any
     * thread (a test, the destructor) may be joining it.
     */
    std::mutex worker_mu;
    std::thread worker;
    std::atomic<bool> repartitioning{false};
};

} // namespace dvp::adaptive

#endif // DVP_ADAPTIVE_ADAPTIVE_ENGINE_HH

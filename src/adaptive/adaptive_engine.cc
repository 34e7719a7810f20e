#include "adaptive/adaptive_engine.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace dvp::adaptive
{

AdaptiveEngine::AdaptiveEngine(engine::DataSet &data,
                               const std::vector<engine::Query> &initial,
                               Params params)
    : data(&data), prm(params),
      threads_(params.threads == 0 ? 1 : params.threads),
      morsel_rows_(params.morselRows),
      detector(params.window, params.changeThreshold)
{
    core::Partitioner partitioner(data, initial, prm.search);
    core::SearchResult res = partitioner.run();
    adapt_stats.lastPartitionerSeconds = res.seconds;
    adapt_stats.lastLayoutTables = res.layout.partitionCount();
    Timer build;
    db = std::make_shared<engine::Database>(data, res.layout, "DVP",
                                            nullptr, prm.compress);
    decision_docs = data.docs.size();

    AuditRecord rec;
    rec.trigger = "initial";
    rec.initialCost = res.initialCost;
    rec.finalCost = res.finalCost;
    rec.iterations = res.iterations;
    rec.moves = res.moves;
    rec.tables = res.layout.partitionCount();
    rec.layoutFingerprint = res.layout.fingerprint();
    rec.partitionerNs = static_cast<uint64_t>(res.seconds * 1e9);
    rec.buildNs = static_cast<uint64_t>(build.seconds() * 1e9);
    pushAudit(std::move(rec));
}

AdaptiveEngine::AdaptiveEngine(RestoreTag, engine::DataSet &data,
                               Restore r, Params params)
    : data(&data), prm(params),
      threads_(params.threads == 0 ? 1 : params.threads),
      morsel_rows_(params.morselRows),
      detector(params.window, params.changeThreshold)
{
    // No partitioner run: the committed layout is rebuilt verbatim
    // from docs[0, baseDocs), which only reference attributes it
    // covers (ingest and the swap cover the catalog before they
    // append).  Later documents are appended as ingest appended them,
    // so attributes they introduced get the same singleton partitions
    // and the layout fingerprint comes back too.
    Timer build;
    const std::vector<storage::Document> none;
    db = std::make_shared<engine::Database>(data, r.layout, "DVP",
                                            &none, prm.compress);
    db->adoptEpoch(r.epoch);
    for (size_t i = 0; i < r.baseDocs; ++i)
        db->insert(data.docs[i]);
    appendDocs(r.baseDocs);
    db->publishFootprint();
    decision_docs = data.docs.size();
    adapt_stats.lastLayoutTables = db->tableCount();

    AuditRecord rec;
    rec.trigger = "recovery";
    rec.tables = db->tableCount();
    rec.layoutFingerprint = db->layoutFingerprint();
    rec.buildNs = static_cast<uint64_t>(build.seconds() * 1e9);
    pushAudit(std::move(rec));
}

std::unique_ptr<AdaptiveEngine>
AdaptiveEngine::restore(engine::DataSet &data, Restore r, Params params)
{
    invariant(r.baseDocs <= data.docs.size(),
              "restore: baseDocs exceeds recovered documents");
    return std::unique_ptr<AdaptiveEngine>(new AdaptiveEngine(
        RestoreTag{}, data, std::move(r), params));
}

void
AdaptiveEngine::setDurability(durability::Manager *dur)
{
    dur_ = dur;
    if (dur_)
        dur_->setCutProvider([this] { return checkpointCut(); });
}

durability::CheckpointCut
AdaptiveEngine::checkpointCut()
{
    // Ingest (doc append + WAL append) and the swap both hold db_mutex
    // exclusive, so under the shared side the copied documents and the
    // WAL position agree exactly: every logged record <= walLsn is in
    // the copy, nothing newer is.
    std::shared_lock<RwLock> lock(db_mutex);
    durability::CheckpointCut cut;
    cut.data = *data;
    cut.layout = db->layout();
    cut.epoch = db->epoch();
    cut.baseDocs = db->docCount();
    cut.walLsn = dur_ ? dur_->wal()->appendedLsn() : 0;
    return cut;
}

void
AdaptiveEngine::pushAudit(AuditRecord rec)
{
    std::lock_guard<std::mutex> lock(audit_mutex);
    rec.seq = ++audit_seq;
    audit_ring.push_back(std::move(rec));
    if (audit_ring.size() > kAuditCapacity)
        audit_ring.pop_front();
}

std::vector<AuditRecord>
AdaptiveEngine::auditTrail() const
{
    std::lock_guard<std::mutex> lock(audit_mutex);
    return {audit_ring.begin(), audit_ring.end()};
}

AdaptiveEngine::~AdaptiveEngine()
{
    quiesce();
}

std::shared_ptr<engine::Database>
AdaptiveEngine::snapshot() const
{
    std::shared_lock<RwLock> lock(db_mutex);
    return db;
}

void
AdaptiveEngine::quiesce()
{
    std::lock_guard<std::mutex> lock(worker_mu);
    if (worker.joinable()) {
        DVP_TRACE_SPAN(quiesce_span, "quiesce", "join repartition");
        worker.join();
    }
}

engine::ResultSet
AdaptiveEngine::execute(const engine::Query &q, engine::QueryStats *stats)
{
    // Bind and run under the shared engine lock: ingest appends to
    // these very tables, and the swap replaces db, only while no query
    // holds it.  The executor's lanes all finish before run() returns,
    // so the lock covers every morsel.
    engine::ResultSet rs;
    double seconds = 0;
    uint64_t scanned = 0;
    {
        std::shared_lock<RwLock> lock(db_mutex);
        if (repartitioning.load(std::memory_order_relaxed)) {
            ++adapt_stats.queriesDuringRepartition;
            DVP_COUNTER_INC("dvp_queries_during_repartition_total");
        }
        Timer timer;
        engine::Executor exec(*db, threads());
        exec.setMorselRows(morselRows());
        exec.setPlanCache(&plan_cache);
        rs = exec.run(q, stats);
        seconds = timer.seconds();
        scanned = db->docCount();
    }

    bool changed = false;
    {
        std::lock_guard<std::mutex> lock(detector_mutex);
        wstats.record(q, seconds, rs.rowCount(), scanned);
        if (prm.adapt && detector.observe(q)) {
            ++adapt_stats.changesDetected;
            changed = true;
        }
    }
    if (changed) {
        DVP_COUNTER_INC("dvp_changes_detected_total");
        DVP_TRACE_SPAN(change_span, "change_detected", q.name.c_str());
        // After the release: a synchronous repartition takes the
        // engine lock exclusive.
        maybeRepartition(q.name);
    }
    return rs;
}

void
AdaptiveEngine::appendDocs(size_t first)
{
    db->coverCatalog();
    for (size_t i = first; i < data->docs.size(); ++i)
        db->insert(data->docs[i]);
}

IngestAck
AdaptiveEngine::ingest(const std::vector<std::vector<json::FlatAttr>> &docs)
{
    IngestAck ack;
    // Encode the WAL body outside the lock (it only reads the
    // caller's documents); the append itself must happen under
    // db_mutex so the log order equals the apply order.
    std::string wal_body;
    const bool log = dur_ != nullptr && !docs.empty();
    if (log)
        wal_body = durability::Manager::encodeIngestBody(docs);
    uint64_t lsn = 0;
    bool changed = false;
    {
        std::unique_lock<RwLock> lock(db_mutex);
        Timer held;
        // Log before apply: a batch the WAL could not take is not
        // appended either, so memory never runs ahead of the log.
        if (log)
            lsn = dur_->logIngest(wal_body);
        if (!log || lsn != 0) {
            size_t first = data->docs.size();
            for (const auto &flat : docs)
                ack.lastOid = data->addFlat(flat);
            appendDocs(first);
            // Feed the change detector's data-drift windows.  Every
            // doc writer holds db_mutex exclusive, so the batch is
            // stable here.
            if (prm.adapt) {
                std::lock_guard<std::mutex> dlock(detector_mutex);
                for (size_t i = first; i < data->docs.size(); ++i)
                    changed |= detector.observeIngest(data->docs[i]);
            }
            ack.count = docs.size();
        }
        ack.totalDocs = data->docs.size();
        ack.epoch = db->epoch();
        DVP_HISTOGRAM_OBSERVE("dvp_ingest_lock_ns",
                              static_cast<uint64_t>(held.seconds() * 1e9));
    }
    if (log) {
        // Log-before-ack: group-commit the record (and maybe trigger
        // a checkpoint) before the caller sees the acknowledgement.
        std::string err = dur_->commit(lsn);
        if (!err.empty())
            ack.walError = std::move(err);
    }
    if (ack.count == 0)
        return ack;
    DVP_COUNTER_ADD("dvp_inserts_total", ack.count);
    if (changed) {
        ++adapt_stats.changesDetected;
        DVP_COUNTER_INC("dvp_changes_detected_total");
        DVP_TRACE_SPAN(change_span, "change_detected", "ingest");
        maybeRepartition("ingest-drift");
    }
    return ack;
}

void
AdaptiveEngine::maybeRepartition(const std::string &trigger)
{
    if (repartitioning.exchange(true))
        return; // one repartition in flight is enough

    std::vector<engine::Query> workload;
    {
        std::lock_guard<std::mutex> lock(detector_mutex);
        workload = wstats.representatives();
    }
    if (workload.empty()) {
        repartitioning.store(false);
        return;
    }

    if (!prm.background) {
        repartitionNow(std::move(workload), trigger);
        return;
    }
    std::lock_guard<std::mutex> lock(worker_mu);
    if (worker.joinable())
        worker.join(); // reap the previous worker
    worker = std::thread(
        [this, w = std::move(workload), t = trigger]() mutable {
            repartitionNow(std::move(w), std::move(t));
        });
}

void
AdaptiveEngine::repartitionNow(std::vector<engine::Query> workload,
                               std::string trigger)
{
    DVP_TRACE_SPAN(repartition_span, "repartition", nullptr);
    Timer total;

    // All shared state the rebuild needs is snapshotted up front: the
    // cost model copies the catalog statistics, and the documents are
    // copied under the lock (shared: it keeps ingest out) so ingest
    // can proceed once the copy is done.  The expensive work below
    // (search + bulk table build) then runs on stable private data.
    layout::Layout current_layout;
    std::vector<storage::Document> doc_snapshot;
    std::unique_ptr<core::Partitioner> partitioner;
    {
        std::shared_lock<RwLock> lock(db_mutex);
        current_layout = db->layout();
        doc_snapshot = data->docs;
        partitioner = std::make_unique<core::Partitioner>(
            *data, std::move(workload), prm.search);
    }

    core::SearchResult res;
    {
        DVP_TRACE_SPAN(part_span, "partitioner", "refine layout");
        res = partitioner->refine(current_layout);
    }
    adapt_stats.lastPartitionerSeconds = res.seconds;

    // Bulk-build the new tables from the snapshot.  The incumbent
    // layout covers every attribute the snapshot's documents carry
    // (ingest covers the catalog before it appends), and refine only
    // moves attributes between partitions, so no cell is dropped.
    Timer build_timer;
    auto fresh = [&] {
        DVP_TRACE_SPAN(build_span, "build", "bulk-build tables");
        return std::make_shared<engine::Database>(
            *data, res.layout, "DVP", &doc_snapshot,
            prm.compress);
    }();
    double build_seconds = build_timer.seconds();

    // Catch up with documents ingested during the build, then switch
    // through an atomic pointer swap (readers hold shared_ptrs, so a
    // query in flight keeps its tables alive).  Attributes born during
    // the build get singleton partitions first, exactly as ingest
    // would have given them.
    Timer swap_timer;
    uint64_t caught_up = 0;
    uint64_t ingested = 0;
    uint64_t swap_lsn = 0;
    {
        DVP_TRACE_SPAN(swap_span, "swap", "catch-up + pointer swap");
        std::unique_lock<RwLock> lock(db_mutex);
        fresh->coverCatalog();
        for (size_t i = fresh->docCount(); i < data->docs.size(); ++i) {
            fresh->insert(data->docs[i]);
            ++caught_up;
        }
        ingested = fresh->docCount() - decision_docs;
        decision_docs = fresh->docCount();
        db = std::move(fresh);
        adapt_stats.lastLayoutTables = db->tableCount();
        ++adapt_stats.repartitions;
        // Log the committed swap inside the same critical section so
        // its WAL position is ordered exactly like the swap itself
        // relative to ingest records.
        if (dur_)
            swap_lsn = dur_->logSwap(db->layout(), db->epoch(),
                                     db->docCount());
        res.layout = db->layout();
    }
    if (dur_) {
        std::string err = dur_->commit(swap_lsn);
        if (!err.empty())
            warn("wal: layout swap record not durable: %s",
                 err.c_str());
    }
    double swap_seconds = swap_timer.seconds();

    AuditRecord rec;
    rec.trigger = std::move(trigger);
    rec.initialCost = res.initialCost;
    rec.finalCost = res.finalCost;
    rec.iterations = res.iterations;
    rec.moves = res.moves;
    rec.tables = res.layout.partitionCount();
    rec.layoutFingerprint = res.layout.fingerprint();
    rec.partitionerNs = static_cast<uint64_t>(res.seconds * 1e9);
    rec.buildNs = static_cast<uint64_t>(build_seconds * 1e9);
    rec.swapNs = static_cast<uint64_t>(swap_seconds * 1e9);
    rec.docsCaughtUp = caught_up;
    rec.deltaFolded = ingested;
    pushAudit(std::move(rec));
    {
        std::lock_guard<std::mutex> lock(detector_mutex);
        wstats.reset();
        detector.reset();
    }
    double seconds = total.seconds();
    adapt_stats.lastRepartitionSeconds = seconds;
    debug("repartition: %zu tables in %.3f s",
          res.layout.partitionCount(), seconds);
    DVP_COUNTER_INC("dvp_repartitions_total");
    DVP_HISTOGRAM_OBSERVE("dvp_repartition_ns",
                          static_cast<uint64_t>(seconds * 1e9));
    DVP_GAUGE_SET("dvp_layout_tables",
                  static_cast<int64_t>(res.layout.partitionCount()));
    repartitioning.store(false);
}

} // namespace dvp::adaptive

#include "adaptive/adaptive_engine.hh"

#include "json/flatten.hh"
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
                                            /*allow_pad=*/true, nullptr,
                                            prm.compress);
    delta_ = std::make_shared<storage::DeltaStore>(
        static_cast<int64_t>(data.docs.size()));
    publishDelta();

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
    // No partitioner run: the committed layout is rebuilt verbatim.
    // docs[0, baseDocs) only reference attributes the logged layout
    // covers (the swap that committed it grew singleton partitions
    // for every catalog attribute), so the bulk build loses no cells;
    // later documents go to the delta exactly as before the crash.
    Timer build;
    std::vector<storage::Document> base_docs(
        data.docs.begin(),
        data.docs.begin() + static_cast<ptrdiff_t>(r.baseDocs));
    db = std::make_shared<engine::Database>(data, r.layout, "DVP",
                                            /*allow_pad=*/true,
                                            &base_docs, prm.compress);
    db->adoptEpoch(r.epoch);
    delta_ = std::make_shared<storage::DeltaStore>(
        static_cast<int64_t>(r.baseDocs));
    for (size_t i = r.baseDocs; i < data.docs.size(); ++i)
        delta_->append(data.docs[i]);
    publishDelta();
    adapt_stats.lastLayoutTables = r.layout.partitionCount();

    AuditRecord rec;
    rec.trigger = "recovery";
    rec.tables = r.layout.partitionCount();
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
    std::lock_guard<std::mutex> lock(db_mutex);
    auto dlock = data->readLock(); // lock order: db_mutex, then mu
    durability::CheckpointCut cut;
    // Ingest (doc append + WAL append) happens entirely under
    // db_mutex, so the copied documents and the WAL position agree
    // exactly: every logged record <= walLsn is in the copy, nothing
    // newer is.
    cut.data = *data;
    cut.layout = db->layout();
    cut.epoch = db->epoch();
    cut.baseDocs = db->docCount();
    cut.walLsn = dur_ ? dur_->wal()->appendedLsn() : 0;
    return cut;
}

void
AdaptiveEngine::publishDelta() const
{
    DVP_GAUGE_SET("dvp_delta_rows", static_cast<int64_t>(delta_->size()));
    DVP_GAUGE_SET("dvp_delta_bytes",
                  static_cast<int64_t>(delta_->bytes()));
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
    std::lock_guard<std::mutex> lock(db_mutex);
    return db;
}

Snapshot
AdaptiveEngine::snapshotFull() const
{
    // Appends and swaps both happen under db_mutex, so (base, delta,
    // delta->size()) read here is a consistent cut: every delta row in
    // the prefix is fully published and no base document is counted
    // twice.  Rows appended after this snapshot exist in the store but
    // stay invisible to the query — the prefix is immutable.
    std::lock_guard<std::mutex> lock(db_mutex);
    Snapshot snap;
    snap.base = db;
    snap.delta = delta_;
    snap.deltaRows = delta_->size();
    snap.epoch = db->epoch();
    return snap;
}

size_t
AdaptiveEngine::deltaRows() const
{
    std::lock_guard<std::mutex> lock(db_mutex);
    return delta_->size();
}

void
AdaptiveEngine::quiesce()
{
    if (worker.joinable()) {
        DVP_TRACE_SPAN(quiesce_span, "quiesce", "join repartition");
        worker.join();
    }
}

engine::ResultSet
AdaptiveEngine::execute(const engine::Query &q, engine::QueryStats *stats)
{
    // One snapshot per query, not per morsel: the executor's lanes all
    // scan the same tables, and the shared_ptrs keep both the base and
    // the delta alive even if a background repartition swaps the
    // engine's pointers mid-query.  The delta prefix length pins the
    // visibility cut, so concurrent ingest never perturbs a running
    // query's result.
    Snapshot snap = snapshotFull();
    if (repartitioning.load(std::memory_order_relaxed)) {
        ++adapt_stats.queriesDuringRepartition;
        DVP_COUNTER_INC("dvp_queries_during_repartition_total");
    }
    Timer timer;
    engine::Executor exec(*snap.base, threads());
    exec.setMorselRows(morselRows());
    exec.setPlanCache(&plan_cache);
    exec.setDelta(snap.delta.get(), snap.deltaRows);
    engine::ResultSet rs = exec.run(q, stats);
    double seconds = timer.seconds();

    uint64_t scanned = snap.base->docCount() + snap.deltaRows;
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
        maybeRepartition(q.name);
    }
    return rs;
}

int64_t
AdaptiveEngine::ingest(const json::JsonValue &doc)
{
    return ingestMany(&doc, 1).lastOid;
}

IngestAck
AdaptiveEngine::ingestBatch(const std::vector<json::JsonValue> &docs)
{
    return ingestMany(docs.data(), docs.size());
}

IngestAck
AdaptiveEngine::ingestMany(const json::JsonValue *docs, size_t n)
{
    // Pre-flatten outside every lock and delegate: encode(flatten(d))
    // is exactly what addObject runs, and the flat form is what the
    // WAL logs, so both ingest surfaces produce identical log records
    // and identical replay.
    std::vector<std::vector<json::FlatAttr>> flats;
    flats.reserve(n);
    for (size_t i = 0; i < n; ++i)
        flats.push_back(json::flatten(docs[i]));
    return ingestFlatBatch(flats);
}

int64_t
AdaptiveEngine::ingestFlat(const std::vector<json::FlatAttr> &flat)
{
    return ingestFlatBatch({flat}).lastOid;
}

IngestAck
AdaptiveEngine::ingestFlatBatch(
    const std::vector<std::vector<json::FlatAttr>> &docs)
{
    IngestAck ack;
    std::shared_ptr<storage::DeltaStore> delta;
    size_t first_idx = 0;
    size_t pending = 0;
    // Encode the WAL body outside the lock (it only reads the
    // caller's documents); the append itself must happen under
    // db_mutex so the log order equals the apply order.
    std::string wal_body;
    const bool log = dur_ != nullptr && !docs.empty();
    if (log)
        wal_body = durability::Manager::encodeIngestBody(docs);
    uint64_t lsn = 0;
    {
        std::lock_guard<std::mutex> lock(db_mutex);
        delta = delta_;
        first_idx = delta->size();
        for (const auto &flat : docs) {
            ack.lastOid = data->addFlat(flat);
            delta->append(data->docs.back());
        }
        publishDelta();
        pending = delta->size();
        ack.count = docs.size();
        ack.totalDocs = data->docs.size();
        ack.epoch = db->epoch();
        if (log)
            lsn = dur_->logIngest(wal_body);
    }
    if (log) {
        // Log-before-ack: group-commit the record (and maybe trigger
        // a checkpoint) before the caller sees the acknowledgement.
        std::string err = dur_->commit(lsn);
        if (!err.empty())
            ack.walError = std::move(err);
    }
    return finishIngest(ack, std::move(delta), first_idx, pending,
                        docs.size());
}

IngestAck
AdaptiveEngine::finishIngest(IngestAck ack,
                             std::shared_ptr<storage::DeltaStore> delta,
                             size_t first_idx, size_t pending, size_t n)
{
    if (n == 0)
        return ack;
    DVP_COUNTER_ADD("dvp_inserts_total", n);

    // Feed the change detector's data-drift windows.  The appended
    // rows are immutable, so reading them back through the captured
    // shared_ptr is race-free even if a fold swaps the engine's delta
    // meanwhile.
    bool changed = false;
    if (prm.adapt) {
        std::lock_guard<std::mutex> lock(detector_mutex);
        for (size_t i = first_idx; i < pending; ++i)
            if (detector.observeIngest(delta->doc(i)))
                changed = true;
    }
    if (changed) {
        ++adapt_stats.changesDetected;
        DVP_COUNTER_INC("dvp_changes_detected_total");
        DVP_TRACE_SPAN(change_span, "change_detected", "ingest");
        maybeRepartition("ingest-drift");
    } else if (prm.deltaFoldRows > 0 && pending >= prm.deltaFoldRows) {
        maybeRepartition("delta-fold");
    }
    return ack;
}

void
AdaptiveEngine::maybeRepartition(const std::string &trigger)
{
    if (repartitioning.exchange(true))
        return; // one repartition in flight is enough

    // With adaptation off the layout is pinned: a repartition may only
    // be a pure fold, so no workload is collected and the partitioner
    // is skipped (repartitionNow keeps the current layout).
    std::vector<engine::Query> workload;
    if (prm.adapt) {
        std::lock_guard<std::mutex> lock(detector_mutex);
        workload = wstats.representatives();
    }
    if (workload.empty() && deltaRows() == 0) {
        repartitioning.store(false);
        return;
    }

    if (!prm.background) {
        repartitionNow(std::move(workload), trigger);
        return;
    }
    quiesce(); // reap the previous worker, if any
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
    // copied under the lock so ingest can proceed concurrently.  The
    // expensive work below (search + bulk table build) then runs on
    // stable private data.  The document snapshot already contains the
    // delta tail (the delta mirrors data->docs' suffix), so building
    // from it IS the fold — delta rows land in the fresh partitions.
    layout::Layout current_layout;
    std::vector<storage::Document> doc_snapshot;
    std::unique_ptr<core::Partitioner> partitioner;
    size_t old_base_docs = 0;
    size_t catalog_width = 0;
    {
        std::lock_guard<std::mutex> lock(db_mutex);
        auto dlock = data->readLock(); // lock order: db_mutex, then mu
        current_layout = db->layout();
        doc_snapshot = data->docs;
        old_base_docs = db->docCount();
        catalog_width = data->catalog.attrCount();
        // The partitioner's cost model copies the catalog statistics,
        // so construct it under the lock too.  A pure fold (no
        // workload) keeps the incumbent layout and skips the search.
        if (!workload.empty())
            partitioner = std::make_unique<core::Partitioner>(
                *data, std::move(workload), prm.search);
    }

    core::SearchResult res;
    if (partitioner != nullptr) {
        DVP_TRACE_SPAN(part_span, "partitioner", "refine layout");
        res = partitioner->refine(current_layout);
    } else {
        res.layout = current_layout;
    }
    adapt_stats.lastPartitionerSeconds = res.seconds;

    // Materialize attributes the layout has never seen — discovered by
    // ingest after the incumbent layout was chosen — as singleton
    // partitions, so folded documents keep every cell.  (Catalog growth
    // happens under db_mutex, so attrs < catalog_width are stable.)
    {
        std::vector<std::vector<storage::AttrId>> parts(
            res.layout.partitions().begin(),
            res.layout.partitions().end());
        bool grew = false;
        for (storage::AttrId a = 0; a < catalog_width; ++a)
            if (res.layout.partitionOf(a) == layout::kNoPart) {
                parts.push_back({a});
                grew = true;
            }
        if (grew)
            res.layout = layout::Layout(std::move(parts));
    }

    // Bulk-build the new tables from the snapshot.
    Timer build_timer;
    auto fresh = [&] {
        DVP_TRACE_SPAN(build_span, "build", "bulk-build tables");
        return std::make_shared<engine::Database>(
            *data, res.layout, "DVP", /*allow_pad=*/true, &doc_snapshot,
            prm.compress);
    }();
    double build_seconds = build_timer.seconds();

    // Catch up with documents ingested during the build, then switch
    // through an atomic pointer swap (readers hold shared_ptrs, so a
    // query in flight keeps its tables alive).  A document carrying an
    // attribute the new layout has no partition for (born during the
    // build) must not lose cells to the fold — it and everything after
    // it stay in the successor delta instead.
    Timer swap_timer;
    uint64_t caught_up = 0;
    uint64_t folded = 0;
    uint64_t swap_lsn = 0;
    {
        DVP_TRACE_SPAN(swap_span, "swap", "catch-up + pointer swap");
        std::lock_guard<std::mutex> lock(db_mutex);
        auto dlock = data->readLock(); // lock order: db_mutex, then mu
        size_t i = fresh->docCount();
        for (; i < data->docs.size(); ++i) {
            const storage::Document &doc = data->docs[i];
            if (!doc.attrs.empty() &&
                doc.attrs.back().first >= catalog_width)
                break;
            fresh->insert(doc);
            ++caught_up;
        }
        auto successor = std::make_shared<storage::DeltaStore>(
            static_cast<int64_t>(i));
        for (; i < data->docs.size(); ++i)
            successor->append(data->docs[i]);
        folded = fresh->docCount() - old_base_docs;
        db = std::move(fresh);
        delta_ = std::move(successor);
        publishDelta();
        adapt_stats.lastLayoutTables = res.layout.partitionCount();
        ++adapt_stats.repartitions;
        // Log the committed swap inside the same critical section so
        // its WAL position is ordered exactly like the swap itself
        // relative to ingest records.
        if (dur_)
            swap_lsn = dur_->logSwap(db->layout(), db->epoch(),
                                     db->docCount());
    }
    if (dur_) {
        std::string err = dur_->commit(swap_lsn);
        if (!err.empty())
            warn("wal: layout swap record not durable: %s",
                 err.c_str());
    }
    double swap_seconds = swap_timer.seconds();
    if (folded > 0) {
        DVP_COUNTER_INC("dvp_delta_folds_total");
        DVP_HISTOGRAM_OBSERVE(
            "dvp_delta_fold_ns",
            static_cast<uint64_t>((build_seconds + swap_seconds) * 1e9));
    }

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
    rec.deltaFolded = folded;
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

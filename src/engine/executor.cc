#include "engine/executor.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <iterator>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "engine/kernels.hh"
#include "engine/operators.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace dvp::engine
{

namespace
{

using storage::AttrId;
using storage::isNull;
using storage::kNullSlot;
using storage::Slot;
using storage::Table;

/** Shorthand for the shared digest (see query.hh). */
uint64_t
cellDigest(AttrId attr, Slot s)
{
    return resultCellDigest(attr, s);
}

/** Accumulates scope wall time into a plain ns counter (RAII). */
class PhaseTimer
{
  public:
    explicit PhaseTimer(uint64_t &acc)
        : acc(acc), t0(std::chrono::steady_clock::now())
    {
    }

    ~PhaseTimer()
    {
        acc += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    uint64_t &acc;
    std::chrono::steady_clock::time_point t0;
};

/**
 * The plan-driven execution backend for one query.  All partition ids,
 * column offsets, and the driving table come pre-resolved from the
 * PhysicalPlan; only literals (Condition::lo/hi) and insert payloads
 * are read from the Query.  Table indices resolve to pointers against
 * this Exec's Database snapshot, so a plan bound on the same epoch is
 * always safe to walk.
 *
 * The public surface (project / matches / retrieve / retrieveGroups /
 * join / insertDoc) is the ops::runQuery Backend concept shared with
 * the Argo executor.
 */
template <class Tracer>
class Exec
{
  public:
    Exec(Database &db, const PhysicalPlan &plan, Tracer tr,
         size_t threads, size_t morsel_rows, bool vectorized)
        : db(db), plan(plan), tr(tr), threads(threads),
          morsel_rows(morsel_rows), vectorized(vectorized)
    {
    }

    /**
     * The timing path.  Its operators may reorder work (kernels,
     * sorted probes, partition-split retrieval); the SimTracer
     * instantiation keeps the paper's loops, whose access sequence is
     * Figs. 6-7, and is the oracle the timing path is tested against.
     */
    static constexpr bool kTiming = std::is_same_v<Tracer, NullTracer>;

    // Work counters, accumulated as plain increments on whichever lane
    // runs the kernel and merged additively at joinLanes (same
    // discipline as the tracer), then flushed to the metrics registry
    // once per query by Executor::run.  Plain (non-atomic) on purpose:
    // each lane Exec is owned by exactly one pool lane at a time.
    uint64_t obs_rows_scanned = 0;     ///< rows visited by scans
    uint64_t obs_partition_touches = 0; ///< partitions hit on retrieval
    uint64_t obs_morsels = 0;          ///< morsel kernels dispatched
    uint64_t obs_blocks_scanned = 0;   ///< zone-map blocks scanned
    uint64_t obs_blocks_skipped = 0;   ///< zone-map blocks skipped
    uint64_t obs_matches = 0;          ///< WHERE-clause matching oids
    uint64_t obs_compressed[4] = {0, 0, 0, 0}; ///< eval paths taken

    // Per-phase wall time, accumulated only on the top-level Exec (the
    // public methods below never run on a forked lane — lanes execute
    // range kernels directly), so each phase counts caller wall time
    // including its scatter/merge.  join() calls matches() for its
    // build side, so obs_filter_ns is included in obs_join_ns there.
    uint64_t obs_project_ns = 0;
    uint64_t obs_filter_ns = 0;
    uint64_t obs_retrieve_ns = 0;
    uint64_t obs_join_ns = 0;

    ResultSet
    project(const Query &)
    {
        PhaseTimer phase(obs_project_ns);
        const MergeScanProjectOp &op = plan.project;
        if (op.tables.empty())
            return ResultSet{};
        std::vector<const Table *> tables = resolve(op.tables);
        if (parallel()) {
            std::vector<int64_t> bounds =
                oidBoundaries(tablePtr(op.driving));
            if (bounds.size() > 2)
                return merge(scatter<ResultSet>(
                    bounds.size() - 1, [&](Exec &lane, size_t i) {
                        return lane.projectRange(op, tables, bounds[i],
                                                 bounds[i + 1]);
                    }));
        }
        DVP_TRACE_SPAN(scan_span, "scan", "serial project");
        return projectRange(op, tables, INT64_MIN, INT64_MAX);
    }

    /**
     * Collect matching oids for the query's WHERE clause, per the bound
     * FilterScan.  With threads > 1 the scan morselizes (by oid range
     * for merge scans, by row range for single-column predicates);
     * per-morsel match vectors concatenate back into one globally
     * sorted list, exactly the serial order.
     */
    std::vector<int64_t>
    matches(const Query &q)
    {
        PhaseTimer phase(obs_filter_ns);
        std::vector<int64_t> m = matchesImpl(q);
        obs_matches = m.size();
        return m;
    }

    /** Retrieve all matches, morselized over the match list. */
    ResultSet
    retrieve(const Query &, const std::vector<int64_t> &matches)
    {
        return retrieveInto(matches, ops::RowSink{});
    }

    /**
     * retrieve() with every match folded into a COUNT(*) per value of
     * output column @p group_col instead of materialized: the same
     * probes, record reads and cell digests, no rows.
     */
    ops::GroupCounts
    retrieveGroups(const Query &, const std::vector<int64_t> &matches,
                   size_t group_col)
    {
        return retrieveInto(matches, ops::GroupSink(group_col));
    }

  private:
    /**
     * The retrieve walk shared by both sinks.  Each morsel runs the
     * kernel on its own copy of the empty @p sink; partial outputs
     * merge in morsel order.
     */
    template <class Sink>
    decltype(Sink::out)
    retrieveInto(const std::vector<int64_t> &matches, Sink sink)
    {
        PhaseTimer phase(obs_retrieve_ns);
        DVP_TRACE_SPAN(retrieve_span, "retrieve", nullptr);
        size_t n = matches.size();
        if (parallel() && n > morsel_rows) {
            size_t nm = (n + morsel_rows - 1) / morsel_rows;
            return merge(scatter<decltype(Sink::out)>(
                nm, [&](Exec &lane, size_t i) {
                    size_t m0 = i * lane.morsel_rows;
                    Sink part = sink;
                    lane.retrieveRange(matches.data() + m0,
                                       std::min(lane.morsel_rows, n - m0),
                                       part);
                    return std::move(part.out);
                }));
        }
        if constexpr (kTiming && std::is_same_v<Sink, ops::RowSink>) {
            if (plan.retrieve.selectAll && partitionMorsels(n) > 1)
                return retrieveAllByPartition(matches);
        }
        retrieveRange(matches.data(), n, sink);
        return std::move(sink.out);
    }

    /**
     * SELECT * of matches that fit one morsel, split by partition
     * instead: each lane probes its partitions for every match and
     * writes their cells into pre-sized NULL rows.  Layout::validate
     * keeps partitions disjoint, so lanes write disjoint columns.
     * Rows, oids and checksum equal retrieveRange's.
     */
    ResultSet
    retrieveAllByPartition(const std::vector<int64_t> &matches)
    {
        const size_t n = matches.size();
        const size_t width = plan.catalogWidth;
        ResultSet rs;
        rs.oids = matches;
        Slot *rows = rs.rows.assignNull(n, width);
        rs.checksum = acrossPartitions(
            matches.data(), n,
            [&](Exec &e, size_t m, const Table &t, size_t row) {
                const Slot *rec = e.readRecord(t, row);
                const auto &schema = t.schema();
                uint64_t x = 0;
                for (size_t c = 0; c < schema.size(); ++c) {
                    Slot s = rec[1 + c];
                    if (schema[c] < width)
                        rows[m * width + schema[c]] = s;
                    if (!isNull(s))
                        x ^= cellDigest(schema[c], s);
                }
                return x;
            });
        return rs;
    }

    std::vector<int64_t>
    matchesImpl(const Query &q)
    {
        DVP_TRACE_SPAN(scan_span, "scan", "condition scan");
        const Condition &c = q.cond;
        const FilterScanOp &f = plan.filter;

        switch (f.mode) {
          case FilterMode::Empty:
            return {}; // condition column unknown: empty result

          case FilterMode::Presence:
            return presenceMatches(f);

          case FilterMode::ColumnPredicate:
            return columnMatches(f, c);

          case FilterMode::NullScan: {
            // IS NULL under sparse omission: an object's attribute is
            // NULL when its cell is stored as NULL *or* the object is
            // omitted from the attribute's partition entirely, so one
            // column scan cannot answer it on any layout.  Present
            // objects minus the NotNull matches is exact everywhere
            // (both sides sorted: presence by construction, the column
            // scan by the oid order of its table).
            std::vector<int64_t> present = presenceMatches(f);
            Condition nn;
            nn.op = CondOp::NotNull;
            nn.attr = c.attr;
            std::vector<int64_t> notnull = columnMatches(f, nn);
            std::vector<int64_t> out;
            out.reserve(present.size() - notnull.size());
            std::set_difference(present.begin(), present.end(),
                                notnull.begin(), notnull.end(),
                                std::back_inserter(out));
            return out;
          }

          case FilterMode::AnyEq: {
            // AnyEq: value = ANY flattened-array column.
            std::vector<const Table *> tables = resolve(f.tables);
            if constexpr (kTiming) {
                if (vectorized)
                    return anyEqVec(tables, f.cols, c);
            }
            if (parallel()) {
                std::vector<int64_t> bounds =
                    oidBoundaries(tablePtr(f.driving));
                if (bounds.size() > 2)
                    return flatten(scatter<std::vector<int64_t>>(
                        bounds.size() - 1, [&](Exec &lane, size_t i) {
                            return lane.anyEqRange(tables, f.cols, c,
                                                   bounds[i],
                                                   bounds[i + 1]);
                        }));
            }
            return anyEqRange(tables, f.cols, c, INT64_MIN, INT64_MAX);
          }
        }
        panic("unhandled filter mode");
    }

  public:
    ResultSet
    join(const Query &q)
    {
        PhaseTimer phase(obs_join_ns);
        invariant(q.joinLeftAttr != storage::kNoAttr &&
                      q.joinRightAttr != storage::kNoAttr,
                  "join query needs both ON columns");
        const HashSelfJoinOp &jn = plan.join;

        // Build side: left records passing the WHERE clause, keyed by
        // the left join attribute.
        std::vector<int64_t> left = matches(q);
        if constexpr (kTiming)
            return joinSorted(left);
        std::unordered_multimap<Slot, int64_t> build;
        if (jn.buildTable >= 0) {
            const Table &t = db.table(jn.buildTable);
            Cursor cursor;
            for (int64_t oid : left) {
                if (probe(t, cursor, oid) == storage::kNoRow)
                    continue;
                Slot key = readCell(t, cursor.pos,
                                    static_cast<size_t>(jn.buildCol));
                if (!isNull(key))
                    build.emplace(key, oid);
            }
        }

        ResultSet rs;
        if (build.empty())
            return rs;

        // Probe side: scan the right join column.
        std::vector<std::pair<int64_t, int64_t>> pairs;
        if (jn.probeTable >= 0) {
            const Table &rt = db.table(jn.probeTable);
            countRows(rt.rows());
            DVP_TRACE_SPAN(probe_span, "scan", "join probe");
            for (size_t r = 0; r < rt.rows(); ++r) {
                Slot key = readCell(rt, r,
                                    static_cast<size_t>(jn.probeCol));
                if (isNull(key))
                    continue;
                auto [lo, hi] = build.equal_range(key);
                if (lo == hi)
                    continue;
                int64_t roid = readOid(rt, r);
                for (auto it = lo; it != hi; ++it)
                    pairs.emplace_back(it->second, roid);
            }
        }

        // SELECT *: materialize both full records for every pair (this
        // retrieval is what stresses the column layout's TLB, §VI-B).
        DVP_TRACE_SPAN(retrieve_span, "retrieve", "join materialize");
        for (auto [loid, roid] : pairs) {
            for (int64_t oid : {loid, roid}) {
                for (size_t ti = 0; ti < db.tableCount(); ++ti) {
                    const Table &t = db.table(ti);
                    size_t pos = t.lowerBound(oid);
                    storage::RowIdx row = storage::kNoRow;
                    if (pos < t.rows()) {
                        // Deciding membership touches the oid slot.
                        if (readOid(t, pos) == oid)
                            row = static_cast<storage::RowIdx>(pos);
                    }
                    if (row == storage::kNoRow)
                        continue;
                    countTouch();
                    const Slot *rec =
                        readRecord(t, static_cast<size_t>(row));
                    const auto &schema = t.schema();
                    for (size_t c = 0; c < schema.size(); ++c)
                        if (!isNull(rec[1 + c]))
                            rs.checksum ^=
                                cellDigest(schema[c], rec[1 + c]);
                }
            }
            rs.rows.append({loid, roid});
        }
        return rs;
    }

    void
    insertDoc(const storage::Document &doc)
    {
        db.insert(doc);
    }

  private:
    /**
     * join() on the timing path, pair for pair and cell for cell the
     * traced hash join's result:
     *  - the build is a flat (key, left oid) array sorted by key, equal
     *    keys in descending left oid — the order libstdc++'s
     *    unordered_multimap::equal_range yields (newest first);
     *  - the right join column is probed by binary search, in row-range
     *    morsels merged in row order;
     *  - the SELECT * materialize walks the pairs' distinct oids once,
     *    sorted, with a forward-only cursor per partition, the
     *    partitions split across lanes.  A record's digest enters the
     *    checksum once per occurrence (so an even count cancels) and
     *    every occurrence counts its partition touch.
     */
    ResultSet
    joinSorted(const std::vector<int64_t> &left)
    {
        const HashSelfJoinOp &jn = plan.join;
        using Entry = std::pair<Slot, int64_t>;   // (key, left oid)
        using Pair = std::pair<int64_t, int64_t>; // (left oid, right oid)
        std::vector<Entry> build;
        if (jn.buildTable >= 0) {
            const Table &t = db.table(jn.buildTable);
            Cursor cursor;
            build.reserve(left.size());
            for (int64_t oid : left) {
                if (probe(t, cursor, oid) == storage::kNoRow)
                    continue;
                Slot key = readCell(t, cursor.pos,
                                    static_cast<size_t>(jn.buildCol));
                if (!isNull(key))
                    build.emplace_back(key, oid);
            }
            std::sort(build.begin(), build.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.first != b.first ? a.first < b.first
                                                    : a.second > b.second;
                      });
        }

        ResultSet rs;
        if (build.empty())
            return rs;

        std::vector<Pair> pairs;
        if (jn.probeTable >= 0) {
            const Table &rt = db.table(jn.probeTable);
            countRows(rt.rows());
            DVP_TRACE_SPAN(probe_span, "scan", "join probe");
            const size_t col = static_cast<size_t>(jn.probeCol);
            auto probeRows = [&](Exec &e, size_t r0, size_t r1) {
                std::vector<Pair> out;
                for (size_t r = r0; r < r1; ++r) {
                    Slot key = e.readCell(rt, r, col);
                    if (isNull(key))
                        continue;
                    auto it = std::lower_bound(
                        build.begin(), build.end(), key,
                        [](const Entry &a, Slot k) { return a.first < k; });
                    if (it == build.end() || it->first != key)
                        continue;
                    int64_t roid = e.readOid(rt, r);
                    for (; it != build.end() && it->first == key; ++it)
                        out.emplace_back(it->second, roid);
                }
                return out;
            };
            if (scatterScan(rt.rows())) {
                size_t nm = (rt.rows() + morsel_rows - 1) / morsel_rows;
                pairs = flatten(scatter<std::vector<Pair>>(
                    nm, [&](Exec &lane, size_t i) {
                        size_t r0 = i * lane.morsel_rows;
                        return probeRows(
                            lane, r0,
                            std::min(r0 + lane.morsel_rows, rt.rows()));
                    }));
            } else {
                pairs = probeRows(*this, 0, rt.rows());
            }
        }

        DVP_TRACE_SPAN(retrieve_span, "retrieve", "join materialize");
        std::vector<int64_t> ids;
        ids.reserve(2 * pairs.size());
        for (auto [loid, roid] : pairs) {
            ids.push_back(loid);
            ids.push_back(roid);
        }
        std::sort(ids.begin(), ids.end());
        std::vector<int64_t> oids;
        std::vector<uint32_t> occurrences;
        for (size_t i = 0; i < ids.size();) {
            size_t j = i;
            while (j < ids.size() && ids[j] == ids[i])
                ++j;
            oids.push_back(ids[i]);
            occurrences.push_back(static_cast<uint32_t>(j - i));
            i = j;
        }
        rs.checksum = acrossPartitions(
            oids.data(), oids.size(),
            [&](Exec &e, size_t m, const Table &t, size_t row) {
                // probe() counted the first occurrence's touch.
                e.obs_partition_touches += occurrences[m] - 1;
                if (occurrences[m] % 2 == 0)
                    return uint64_t{0};
                const Slot *rec = e.readRecord(t, row);
                const auto &schema = t.schema();
                uint64_t x = 0;
                for (size_t c = 0; c < schema.size(); ++c)
                    if (!isNull(rec[1 + c]))
                        x ^= cellDigest(schema[c], rec[1 + c]);
                return x;
            });
        rs.rows.reserve(pairs.size(), 2);
        for (auto [loid, roid] : pairs)
            rs.rows.append({loid, roid});
        return rs;
    }

    Database &db;
    const PhysicalPlan &plan;
    Tracer tr;
    size_t threads;     ///< lane cap for this query (1 = serial)
    size_t morsel_rows; ///< driving-table rows per morsel
    bool vectorized;    ///< use the batched kernels (timing path only)

    kernels::SelVec sel; ///< per-lane selection vector (reused per batch)
    std::vector<Slot> scratch_;     ///< block-decompress scratch (lazy)
    std::vector<Slot> rec_scratch_; ///< sealed-record materialization

    /**
     * Per-lane decoded-block cache for sealed point reads.  Sequential
     * consumers (merge-scan cursors, projections, group-by, presence
     * scans) hit one (table, block, column) stream thousands of times
     * in a row; decoding the block once into a cached stripe turns
     * those into plain array reads.  Random consumers (join gallops,
     * index-retrieve probes) must not pay a 2048-slot decompression
     * for one row, so an entry only materializes after
     * kDecodeFillAfter point reads landed on the same stream — until
     * then reads fall through to columnValue.  Once a stream has
     * proved itself, advancing to the *next* block refills
     * immediately: a sequential cursor keeps streaming decoded data
     * instead of re-auditioning at every block boundary.  Ways are
     * keyed on (table, slot) only — a stream keeps one way for a
     * whole scan, so a wide merge (Q8 fans over every array-element
     * table) cannot ping-pong two streams through one way just
     * because their block numbers hash together.  Direct-mapped, so a
     * lookup is one hash + compare; entries die with the Exec (one
     * query), never outliving the database epoch.
     */
    struct DecodedBlock
    {
        const Table *table = nullptr;
        size_t block = 0;
        size_t slot = 0;
        uint32_t misses = 0;
        bool filled = false;
        std::vector<Slot> data;
    };
    static constexpr size_t kDecodeCacheWays = 128; // power of two
    static constexpr uint32_t kDecodeFillAfter = 32;
    std::vector<DecodedBlock> dcache_; ///< sealed point-read cache (lazy)

    void
    countRows(uint64_t n)
    {
        obs_rows_scanned += n;
    }

    void
    countTouch()
    {
        ++obs_partition_touches;
    }

    void
    countBlock(bool skipped)
    {
        if (skipped)
            ++obs_blocks_skipped;
        else
            ++obs_blocks_scanned;
    }

    /**
     * Presence union: every stored object qualifies (no predicate, or
     * the IS NULL planner path's universe).  Merge scan across all
     * tables, morselized by the driving table's oid boundaries.
     */
    std::vector<int64_t>
    presenceMatches(const FilterScanOp &f)
    {
        std::vector<const Table *> all;
        for (size_t t = 0; t < db.tableCount(); ++t)
            all.push_back(&db.table(t));
        if (all.empty())
            return {};
        if (parallel()) {
            std::vector<int64_t> bounds =
                oidBoundaries(tablePtr(f.driving));
            if (bounds.size() > 2)
                return flatten(scatter<std::vector<int64_t>>(
                    bounds.size() - 1, [&](Exec &lane, size_t i) {
                        return lane.presenceRange(all, bounds[i],
                                                  bounds[i + 1]);
                    }));
        }
        return presenceRange(all, INT64_MIN, INT64_MAX);
    }

    /**
     * Single-column predicate scan, morselized by row range once the
     * rows left to scan hold a morsel per lane (scatterScan): those of
     * the blocks whose zone maps can match on the vectorized path, all
     * rows otherwise.  A smaller scan stays on the caller.
     */
    std::vector<int64_t>
    columnMatches(const FilterScanOp &f, const Condition &c)
    {
        const Table &t = db.table(f.table);
        size_t live = t.rows();
        if constexpr (kTiming) {
            if (vectorized)
                live = liveRows(t, static_cast<size_t>(f.col),
                                kernels::fromCondition(c));
        }
        if (scatterScan(live)) {
            size_t nm = (t.rows() + morsel_rows - 1) / morsel_rows;
            return flatten(scatter<std::vector<int64_t>>(
                nm, [&](Exec &lane, size_t i) {
                    size_t r0 = i * lane.morsel_rows;
                    size_t r1 = std::min(r0 + lane.morsel_rows,
                                         t.rows());
                    return lane.condRange(t, f.col, c, r0, r1);
                }));
        }
        return condRange(t, f.col, c, 0, t.rows());
    }

    /** Rows of @p t's blocks whose zone maps for @p col can match @p p. */
    static size_t
    liveRows(const Table &t, size_t col, const kernels::Pred &p)
    {
        size_t rows = 0;
        for (size_t b = 0; b < t.blockCount(); ++b)
            if (kernels::zoneCanMatch(p, t.zone(b, col)))
                rows += t.blockRows(b);
        return rows;
    }

    /**
     * `value = ANY array` on the batched kernels: condRangeVec (zone
     * maps + Eq/StrEq) over each bound array column, the per-column
     * sorted oid lists unioned.  A morsel is one table's whole-block
     * range, so every (block, column) is scanned or skipped exactly
     * once at any lane count; rows_scanned counts column-rows.  The
     * scan scatters once the blocks that survive the zone maps hold a
     * morsel of rows per lane.
     */
    std::vector<int64_t>
    anyEqVec(const std::vector<const Table *> &tables,
             const std::vector<std::vector<int>> &cols,
             const Condition &c)
    {
        using storage::kZoneRows;
        struct Unit
        {
            size_t table, b0, b1;
        };
        const kernels::Pred p = kernels::fromCondition(c);
        const size_t per = std::max<size_t>(1, morsel_rows / kZoneRows);
        std::vector<Unit> units;
        size_t live = 0;
        for (size_t i = 0; i < tables.size(); ++i) {
            const size_t nb = tables[i]->blockCount();
            for (size_t b0 = 0; b0 < nb; b0 += per)
                units.push_back({i, b0, std::min(nb, b0 + per)});
            for (int col : cols[i])
                live += liveRows(*tables[i], static_cast<size_t>(col), p);
        }
        auto scan = [&](Exec &e, const Unit &u) {
            const Table &t = *tables[u.table];
            size_t r0 = u.b0 * kZoneRows;
            size_t r1 = std::min(t.rows(), u.b1 * kZoneRows);
            std::vector<int64_t> out, merged;
            for (int col : cols[u.table]) {
                std::vector<int64_t> m = e.condRangeVec(t, col, c, r0, r1);
                if (out.empty()) {
                    out = std::move(m);
                    continue;
                }
                merged.clear();
                std::set_union(out.begin(), out.end(), m.begin(), m.end(),
                               std::back_inserter(merged));
                out.swap(merged);
            }
            return out;
        };
        std::vector<std::vector<int64_t>> parts;
        if (units.size() > 1 && scatterScan(live)) {
            parts = scatter<std::vector<int64_t>>(
                units.size(), [&](Exec &lane, size_t i) {
                    return scan(lane, units[i]);
                });
        } else {
            for (const Unit &u : units)
                parts.push_back(scan(*this, u));
        }
        std::vector<int64_t> out = flatten(std::move(parts));
        if (tables.size() > 1) {
            std::sort(out.begin(), out.end());
            out.erase(std::unique(out.begin(), out.end()), out.end());
        }
        return out;
    }

    /**
     * Lanes for probing @p n sorted oids in every partition: one per
     * morsel_rows probes, at most one per partition; 1 = serial.
     */
    size_t
    partitionMorsels(size_t n) const
    {
        if (!parallel())
            return 1;
        size_t nt = db.tableCount();
        return std::max<size_t>(1, std::min(nt, n * nt / morsel_rows));
    }

    /**
     * Probe every partition for each of the @p n sorted @p oids with a
     * forward-only cursor, calling hit(exec, m, table, row) for each
     * oids[m] the partition holds; returns the XOR of the hits'
     * results.  The partitions split into contiguous ranges across
     * lanes once partitionMorsels(n) > 1.
     */
    template <class Hit>
    uint64_t
    acrossPartitions(const int64_t *oids, size_t n, Hit hit)
    {
        auto walk = [&](Exec &e, size_t t0, size_t t1) {
            uint64_t x = 0;
            for (size_t ti = t0; ti < t1; ++ti) {
                const Table &t = e.db.table(ti);
                Cursor cursor;
                for (size_t m = 0; m < n; ++m)
                    if (e.probe(t, cursor, oids[m]) != storage::kNoRow)
                        x ^= hit(e, m, t, cursor.pos);
            }
            return x;
        };
        const size_t nt = db.tableCount();
        const size_t nm = partitionMorsels(n);
        if (nm == 1)
            return walk(*this, 0, nt);
        uint64_t x = 0;
        for (uint64_t part : scatter<uint64_t>(
                 nm, [&](Exec &lane, size_t i) {
                     return walk(lane, i * nt / nm, (i + 1) * nt / nm);
                 }))
            x ^= part;
        return x;
    }

    /** Resolve a plan's table indices against this Database snapshot. */
    std::vector<const Table *>
    resolve(const std::vector<int> &ids) const
    {
        std::vector<const Table *> out;
        out.reserve(ids.size());
        for (int t : ids)
            out.push_back(&db.table(t));
        return out;
    }

    const Table *
    tablePtr(int id) const
    {
        return id < 0 ? nullptr : &db.table(static_cast<size_t>(id));
    }

    // Row readers.  Sealed (compressed) rows have no record pointer to
    // hand out, so they go through the Table's decoding accessors; the
    // executor forbids compressed databases on the SimTracer path
    // (Executor::run(q, mh)), so tracer touches are only elided where
    // the tracer is already the no-op NullTracer and the simulated
    // access sequence stays byte-identical.  sealedRows() is 0 for
    // every uncompressed table, so the hot uncompressed path is one
    // always-false compare.

    Slot
    sealedRead(const Table &t, size_t row, size_t slot)
    {
        size_t b = row / storage::kZoneRows;
        size_t i = row % storage::kZoneRows;
        size_t h = ((reinterpret_cast<uintptr_t>(&t) >> 4) * 31 +
                    slot * 0x9E3779B9u) &
                   (kDecodeCacheWays - 1);
        if (dcache_.empty())
            dcache_.resize(kDecodeCacheWays);
        DecodedBlock &e = dcache_[h];
        if (e.table == &t && e.slot == slot) {
            if (e.block == b) {
                if (e.filled)
                    return e.data[i];
                if (++e.misses >= kDecodeFillAfter) {
                    e.data.resize(storage::kZoneRows);
                    storage::decompressColumn(t.sealedColumn(b, slot),
                                              e.data.data());
                    e.filled = true;
                    return e.data[i];
                }
            } else if (e.filled && b == e.block + 1) {
                // Proven sequential stream crossing a block boundary:
                // refill without re-auditioning.
                e.block = b;
                storage::decompressColumn(t.sealedColumn(b, slot),
                                          e.data.data());
                return e.data[i];
            } else {
                e.block = b;
                e.misses = 1;
                e.filled = false;
            }
        } else {
            e.table = &t;
            e.block = b;
            e.slot = slot;
            e.misses = 1;
            e.filled = false;
        }
        return storage::columnValue(t.sealedColumn(b, slot), i);
    }

    /** Read a record's oid slot through the tracer. */
    int64_t
    readOid(const Table &t, size_t row)
    {
        if (row < t.sealedRows())
            return sealedRead(t, row, 0);
        const Slot *rec = t.record(row);
        tr.touch(rec, 8);
        return rec[0];
    }

    /** Read one cell through the tracer. */
    Slot
    readCell(const Table &t, size_t row, size_t col)
    {
        if (row < t.sealedRows())
            return sealedRead(t, row, 1 + col);
        const Slot *rec = t.record(row);
        tr.touch(rec + 1 + col, 8);
        return rec[1 + col];
    }

    /**
     * Read a full record payload through the tracer.  Sealed rows
     * materialize into the lane's record scratch; the pointer is valid
     * until the next readRecord on this lane.
     */
    const Slot *
    readRecord(const Table &t, size_t row)
    {
        if (row < t.sealedRows()) {
            size_t n = 1 + t.attrCount();
            if (rec_scratch_.size() < n)
                rec_scratch_.resize(n);
            t.materializeRecord(row, rec_scratch_.data());
            return rec_scratch_.data();
        }
        const Slot *rec = t.record(row);
        tr.touch(rec, (1 + t.attrCount()) * 8);
        return rec;
    }

    /**
     * Galloping search for the first row at or after @p from whose oid
     * is >= @p oid.  This is the engine's primary-key index: the sorted
     * oid column itself, so every inspected slot is a traced memory
     * access — which is what makes the column layout pay ~1019 table
     * touches per SELECT * match (Fig. 7).  Matches arrive in
     * increasing oid order, so each seek starts at the previous cursor.
     */
    size_t
    seekFrom(const Table &t, size_t from, int64_t oid)
    {
        size_t n = t.rows();
        if (from >= n)
            return from;
        if (readOid(t, from) >= oid)
            return from;
        size_t step = 1;
        size_t lo = from;
        while (lo + step < n && readOid(t, lo + step) < oid) {
            lo += step;
            step *= 2;
        }
        size_t hi = std::min(n, lo + step + 1);
        while (lo < hi) {
            size_t mid = lo + (hi - lo) / 2;
            if (readOid(t, mid) < oid)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /**
     * A merge-scan cursor over one table's sorted oid column.  The oid
     * under the cursor is cached, so once the cursor has advanced past
     * a sought object, deciding "absent" costs no memory access at all
     * — this is how the paper's simultaneous scans keep ~100 sparse
     * partitions cheap to consult per match.
     */
    struct Cursor
    {
        size_t pos = 0;
        int64_t oid = INT64_MIN; ///< oid at pos; INT64_MIN = unread
    };

    /**
     * Position @p c at @p target in @p t.
     * @return the row index, or kNoRow when the object is absent.
     */
    storage::RowIdx
    probe(const Table &t, Cursor &c, int64_t target)
    {
        if (c.oid == INT64_MIN) {
            if (c.pos >= t.rows()) {
                c.oid = INT64_MAX;
                return storage::kNoRow;
            }
            c.oid = readOid(t, c.pos);
        }
        if (c.oid > target)
            return storage::kNoRow; // cursor already past: free check
        if (c.oid == target) {
            countTouch();
            return static_cast<storage::RowIdx>(c.pos);
        }
        c.pos = seekFrom(t, c.pos, target);
        if (c.pos >= t.rows()) {
            c.oid = INT64_MAX;
            return storage::kNoRow;
        }
        c.oid = readOid(t, c.pos);
        if (c.oid == target) {
            countTouch();
            return static_cast<storage::RowIdx>(c.pos);
        }
        return storage::kNoRow;
    }

    // -----------------------------------------------------------------
    // Morsel plumbing.  A parallel scan forks one Exec per pool lane
    // (each on its own forked tracer), runs range kernels on the shared
    // pool, then concatenates the ordered partial results and joins the
    // lane tracers' counters back additively.
    // -----------------------------------------------------------------

    bool
    parallel() const
    {
        return threads > 1;
    }

    /**
     * Whether a scan that reads @p rows rows should scatter: only when
     * they give every lane of the query at least one morsel.  Below
     * that, forking lanes costs more than the scan saves.
     */
    bool
    scatterScan(size_t rows) const
    {
        size_t lanes = std::min(threads, ThreadPool::shared().laneCount());
        return parallel() && rows >= lanes * morsel_rows;
    }

    /** One serial (threads=1) Exec per pool lane, on forked tracers. */
    std::vector<Exec>
    forkLanes()
    {
        size_t n = ThreadPool::shared().laneCount();
        std::vector<Exec> lanes;
        lanes.reserve(n);
        for (size_t l = 0; l < n; ++l)
            lanes.emplace_back(db, plan, tr.fork(), size_t{1},
                               morsel_rows, vectorized);
        return lanes;
    }

    void
    joinLanes(const std::vector<Exec> &lanes)
    {
        for (const Exec &l : lanes) {
            tr.join(l.tr);
            obs_rows_scanned += l.obs_rows_scanned;
            obs_partition_touches += l.obs_partition_touches;
            obs_blocks_scanned += l.obs_blocks_scanned;
            obs_blocks_skipped += l.obs_blocks_skipped;
            for (size_t i = 0; i < 4; ++i)
                obs_compressed[i] += l.obs_compressed[i];
        }
    }

    /**
     * Oid-domain morsel boundaries: the plan's driving (largest) table's
     * oid column sampled every morsel_rows rows, extended to cover
     * (-inf, +inf) so oids present only in sparser tables still land
     * in exactly one morsel.  Boundaries are strictly increasing
     * because oid columns are.
     */
    std::vector<int64_t>
    oidBoundaries(const Table *driving) const
    {
        std::vector<int64_t> bounds{INT64_MIN};
        if (driving != nullptr) {
            for (size_t r = morsel_rows; r < driving->rows();
                 r += morsel_rows)
                bounds.push_back(driving->oid(r));
        }
        bounds.push_back(INT64_MAX);
        return bounds;
    }

    /**
     * Concatenate ordered partial results into one flat buffer sized
     * once; XOR-merge checksums.  Each partial is freed as soon as it
     * is copied.
     */
    static ResultSet
    merge(std::vector<ResultSet> parts)
    {
        DVP_TRACE_SPAN(merge_span, "merge", "concat partials");
        ResultSet rs;
        size_t total = 0, width = 0;
        for (const ResultSet &p : parts) {
            total += p.rows.size();
            if (!p.rows.empty())
                width = p.rows.width();
        }
        rs.oids.reserve(total);
        rs.rows.reserve(total, width);
        for (ResultSet &p : parts) {
            rs.checksum ^= p.checksum;
            rs.oids.insert(rs.oids.end(), p.oids.begin(), p.oids.end());
            rs.rows.append(p.rows);
            p = ResultSet{};
        }
        return rs;
    }

    /** Fold per-morsel group counts (in morsel order); XOR checksums. */
    static ops::GroupCounts
    merge(std::vector<ops::GroupCounts> parts)
    {
        DVP_TRACE_SPAN(merge_span, "merge", "merge group counts");
        ops::GroupCounts g = std::move(parts.front());
        for (size_t i = 1; i < parts.size(); ++i) {
            g.checksum ^= parts[i].checksum;
            for (const auto &[key, count] : parts[i].counts)
                g.counts[key] += count;
        }
        return g;
    }

    /**
     * Run kernel(lane_exec, morsel_index) for each morsel.  Only ever
     * called on the top-level Exec (lanes run range kernels directly),
     * so the scatter span nests under the caller's query span.
     */
    template <class Part, class Kernel>
    std::vector<Part>
    scatter(size_t n_morsels, Kernel kernel)
    {
        obs_morsels += n_morsels;
        char detail[obs::SpanRecord::kDetailLen];
        std::snprintf(detail, sizeof(detail), "%zu morsels", n_morsels);
        DVP_TRACE_SPAN(scatter_span, "scatter", detail);
        std::vector<Exec> lanes = forkLanes();
        std::vector<Part> parts(n_morsels);
        ThreadPool::shared().parallelFor(
            n_morsels, threads, [&](size_t i, size_t lane) {
                parts[i] = kernel(lanes[lane], i);
            });
        joinLanes(lanes);
        return parts;
    }

    /** Concatenate per-morsel outputs in morsel order. */
    template <class T>
    static std::vector<T>
    flatten(std::vector<std::vector<T>> parts)
    {
        DVP_TRACE_SPAN(merge_span, "merge", "flatten matches");
        size_t total = 0;
        for (const auto &p : parts)
            total += p.size();
        std::vector<T> out;
        out.reserve(total);
        for (const auto &p : parts)
            out.insert(out.end(), p.begin(), p.end());
        return out;
    }

    /**
     * Merge-scan @p tables simultaneously by their sorted oid columns,
     * restricted to oids in [@p lo, @p hi).  @p cb is called once per
     * oid present in at least one table with a row-index vector (kNoRow
     * for absent tables).  The unbounded call (INT64_MIN, INT64_MAX)
     * is the paper's full simultaneous scan, byte-for-byte.
     */
    template <class F>
    void
    mergeScan(const std::vector<const Table *> &tables, int64_t lo,
              int64_t hi, F cb)
    {
        size_t n = tables.size();
        std::vector<size_t> pos(n, 0);
        if (lo != INT64_MIN)
            for (size_t i = 0; i < n; ++i)
                pos[i] = tables[i]->lowerBound(lo);
        std::vector<storage::RowIdx> rows(n);
        if constexpr (kTiming) {
            // Timing path: each cursor caches the oid under it, read
            // once per *advance* instead of once per merge iteration.
            // A sorted-oid cursor's value cannot change until it
            // moves, so the cache is exact; on compressed tables it
            // also keeps the per-iteration cost off the block-decode
            // path.  The traced loop below re-reads every cursor each
            // iteration — that repetition IS the paper's simulated
            // simultaneous-scan access sequence, so it stays intact.
            std::vector<int64_t> cur(n);
            auto load = [&](size_t i) {
                cur[i] = pos[i] < tables[i]->rows()
                             ? readOid(*tables[i], pos[i])
                             : INT64_MAX;
            };
            for (size_t i = 0; i < n; ++i)
                load(i);
            while (true) {
                int64_t min_oid = INT64_MAX;
                for (size_t i = 0; i < n; ++i)
                    min_oid = std::min(min_oid, cur[i]);
                if (min_oid == INT64_MAX ||
                    (hi != INT64_MAX && min_oid >= hi))
                    break;
                for (size_t i = 0; i < n; ++i)
                    rows[i] = cur[i] == min_oid
                                  ? static_cast<storage::RowIdx>(pos[i])
                                  : storage::kNoRow;
                countRows(1);
                cb(min_oid, rows);
                for (size_t i = 0; i < n; ++i) {
                    if (rows[i] != storage::kNoRow) {
                        ++pos[i];
                        load(i);
                    }
                }
            }
            return;
        }
        while (true) {
            int64_t min_oid = INT64_MAX;
            for (size_t i = 0; i < n; ++i) {
                if (pos[i] < tables[i]->rows()) {
                    int64_t o = readOid(*tables[i], pos[i]);
                    min_oid = std::min(min_oid, o);
                }
            }
            if (min_oid == INT64_MAX ||
                (hi != INT64_MAX && min_oid >= hi))
                break;
            for (size_t i = 0; i < n; ++i) {
                bool at = pos[i] < tables[i]->rows() &&
                          tables[i]->oid(pos[i]) == min_oid;
                rows[i] = at ? static_cast<storage::RowIdx>(pos[i])
                             : storage::kNoRow;
            }
            countRows(1);
            cb(min_oid, rows);
            for (size_t i = 0; i < n; ++i)
                if (rows[i] != storage::kNoRow)
                    ++pos[i];
        }
    }

    /**
     * Largest single-table row span over oids in [@p lo, @p hi): a
     * reserve() estimate for merge-scan outputs.  The union is at least
     * this and usually close to it (the driving table dominates).
     * Table::lowerBound is untraced, so the estimate adds no simulated
     * accesses.
     */
    size_t
    spanEstimate(const std::vector<const Table *> &tables, int64_t lo,
                 int64_t hi) const
    {
        size_t est = 0;
        for (const Table *t : tables) {
            size_t a = lo == INT64_MIN ? 0 : t->lowerBound(lo);
            size_t b = hi == INT64_MAX ? t->rows() : t->lowerBound(hi);
            est = std::max(est, b - a);
        }
        return est;
    }

    /** Project the oids in [@p lo, @p hi): one morsel's kernel. */
    ResultSet
    projectRange(const MergeScanProjectOp &op,
                 const std::vector<const Table *> &tables, int64_t lo,
                 int64_t hi)
    {
        ResultSet rs;
        const size_t width = op.attrs.size();
        size_t est = spanEstimate(tables, lo, hi);
        rs.oids.reserve(est);
        rs.rows.reserve(est, width);
        mergeScan(tables, lo, hi,
                  [&](int64_t oid,
                      const std::vector<storage::RowIdx> &rows) {
            Slot *row = rs.rows.appendRow(width);
            bool any = false;
            for (size_t i = 0; i < width; ++i) {
                if (op.tbl_slot[i] < 0 ||
                    rows[op.tbl_slot[i]] == storage::kNoRow)
                    continue;
                Slot s = readCell(
                    *tables[op.tbl_slot[i]],
                    static_cast<size_t>(rows[op.tbl_slot[i]]),
                    static_cast<size_t>(op.tbl_col[i]));
                row[i] = s;
                if (!isNull(s)) {
                    any = true;
                    rs.checksum ^= cellDigest(op.attrs[i], s);
                }
            }
            if (any)
                rs.oids.push_back(oid);
            else
                rs.rows.popRow();
        });
        return rs;
    }

    /** Presence-union kernel: oids of [@p lo, @p hi) in any table. */
    std::vector<int64_t>
    presenceRange(const std::vector<const Table *> &tables, int64_t lo,
                  int64_t hi)
    {
        std::vector<int64_t> matches;
        matches.reserve(spanEstimate(tables, lo, hi));
        mergeScan(tables, lo, hi,
                  [&](int64_t oid, const auto &) {
            matches.push_back(oid);
        });
        return matches;
    }

    /**
     * Predicate kernel over rows [@p r0, @p r1) of one column.  On the
     * timing path (NullTracer) with vectorization enabled this runs the
     * batched SelVec kernels with zone-map block skipping; the SimTracer
     * instantiation never takes that branch, so the simulated access
     * sequence (Figs. 6-7) is the original row loop, byte-for-byte.
     */
    std::vector<int64_t>
    condRange(const Table &t, int col, const Condition &c, size_t r0,
              size_t r1)
    {
        if constexpr (kTiming) {
            if (vectorized)
                return condRangeVec(t, col, c, r0, r1);
        }
        countRows(r1 - r0);
        std::vector<int64_t> matches;
        for (size_t r = r0; r < r1; ++r) {
            Slot s = readCell(t, r, static_cast<size_t>(col));
            if (c.matches(s))
                matches.push_back(readOid(t, r));
        }
        return matches;
    }

    /**
     * Vectorized form of condRange: per zone-map block overlapping
     * [@p r0, @p r1), either skip it outright (zoneCanMatch is false
     * for the *whole* block, hence conservative for any sub-range) or
     * run the dispatched batch kernel over the overlap and translate
     * the SelVec's in-batch indices to oids.  The match vector is
     * reserved from the surviving blocks' non-null counts, and
     * obs_rows_scanned counts only scanned blocks' rows.  A block is
     * counted scanned or skipped (and its compressed eval path counted)
     * only by the range that holds its first row, so a block split over
     * several sub-block morsels still counts once: every counter stays
     * identical across thread counts and morsel sizes.
     */
    std::vector<int64_t>
    condRangeVec(const Table &t, int col, const Condition &c, size_t r0,
                 size_t r1)
    {
        using storage::kZoneRows;
        const kernels::Pred p = kernels::fromCondition(c);
        const kernels::KernelFn fn = kernels::kernel(p.op);
        const bool simd = kernels::simdActive();
        const size_t ucol = static_cast<size_t>(col);
        const size_t stride = t.strideSlots();

        const size_t b0 = r0 / kZoneRows;
        const size_t b1 = (r1 + kZoneRows - 1) / kZoneRows;

        size_t bound = 0;
        for (size_t b = b0; b < b1; ++b) {
            const storage::ZoneEntry &z = t.zone(b, ucol);
            if (kernels::zoneCanMatch(p, z))
                bound += z.nonnull;
        }
        std::vector<int64_t> matches;
        matches.reserve(bound);

        for (size_t b = b0; b < b1; ++b) {
            const bool first = b * kZoneRows >= r0;
            if (!kernels::zoneCanMatch(p, t.zone(b, ucol))) {
                if (first)
                    countBlock(true);
                continue;
            }
            if (first)
                countBlock(false);
            size_t s0 = std::max(r0, b * kZoneRows);
            size_t s1 = std::min(r1, b * kZoneRows + t.blockRows(b));
            countRows(s1 - s0);
            if (b * kZoneRows < t.sealedRows()) {
                // Sealed block: evaluate on the compressed column
                // directly (RLE runs / packed-code compares), falling
                // back to a decompress into the lane scratch only when
                // the encoding can't answer the op exactly.
                if (scratch_.empty())
                    scratch_.resize(kZoneRows);
                const storage::ColBlock &cb =
                    t.sealedColumn(b, 1 + ucol);
                kernels::CompressedPath path = kernels::evalColBlock(
                    cb, s0 - b * kZoneRows, s1 - b * kZoneRows, p,
                    t.zone(b, ucol), scratch_.data(), sel);
                if (first) {
                    kernels::countCompressedEval(path);
                    ++obs_compressed[static_cast<size_t>(path)];
                }
                const storage::ColBlock &ob = t.sealedColumn(b, 0);
                for (uint32_t i = 0; i < sel.n; ++i)
                    matches.push_back(storage::columnValue(
                        ob, s0 - b * kZoneRows + sel.idx[i]));
                continue;
            }
            const Slot *colp = t.record(s0) + 1 + ucol;
            fn(colp, stride, s1 - s0, p.lo, p.hi, sel);
            kernels::countInvocation(p.op, simd);
            for (uint32_t i = 0; i < sel.n; ++i)
                matches.push_back(t.oid(s0 + sel.idx[i]));
        }
        return matches;
    }

    /** AnyEq kernel: oids in [@p lo, @p hi) matching any column. */
    std::vector<int64_t>
    anyEqRange(const std::vector<const Table *> &tables,
               const std::vector<std::vector<int>> &cols,
               const Condition &c, int64_t lo, int64_t hi)
    {
        std::vector<int64_t> matches;
        mergeScan(tables, lo, hi,
                  [&](int64_t oid,
                      const std::vector<storage::RowIdx> &rows) {
            for (size_t i = 0; i < tables.size(); ++i) {
                if (rows[i] == storage::kNoRow)
                    continue;
                for (int col : cols[i]) {
                    Slot s = readCell(*tables[i],
                                      static_cast<size_t>(rows[i]),
                                      static_cast<size_t>(col));
                    if (c.matches(s)) {
                        matches.push_back(oid);
                        return;
                    }
                }
            }
        });
        return matches;
    }

    /**
     * Retrieve @p count already-matched oids at @p matches into
     * @p sink.  Matches must be in increasing oid order; per-table
     * cursors then seek forward only.
     */
    template <class Sink>
    void
    retrieveRange(const int64_t *matches, size_t count, Sink &sink)
    {
        const IndexRetrieveOp &op = plan.retrieve;
        sink.reserve(count);
        uint64_t checksum = 0;

        if (op.selectAll) {
            // Probes every partition; the row width is the bind-time
            // catalog width (part of the plan, so lanes never race a
            // concurrent ingest growing the live catalog).  Cells of
            // attributes past the width still feed the checksum, so
            // digests are width-independent.
            size_t width = plan.catalogWidth;
            std::vector<Cursor> cursor(db.tableCount());
            for (size_t m = 0; m < count; ++m) {
                int64_t oid = matches[m];
                sink.begin(width);
                for (size_t ti = 0; ti < db.tableCount(); ++ti) {
                    const Table &t = db.table(ti);
                    if (probe(t, cursor[ti], oid) == storage::kNoRow)
                        continue;
                    const Slot *rec = readRecord(t, cursor[ti].pos);
                    const auto &schema = t.schema();
                    for (size_t ccol = 0; ccol < schema.size(); ++ccol) {
                        Slot s = rec[1 + ccol];
                        if (schema[ccol] < width)
                            sink.cell(schema[ccol], s);
                        if (!isNull(s))
                            checksum ^= cellDigest(schema[ccol], s);
                    }
                }
                sink.end(oid);
            }
            sink.out.checksum ^= checksum;
            return;
        }

        // Explicit projection list: the bound groups, one cursor each.
        struct Group
        {
            const Table *table;
            const std::vector<IndexRetrieveOp::Col> *cols;
            Cursor cursor;
        };
        std::vector<Group> groups;
        groups.reserve(op.groups.size());
        for (const auto &g : op.groups)
            groups.push_back(Group{&db.table(g.table), &g.cols, {}});

        for (size_t m = 0; m < count; ++m) {
            int64_t oid = matches[m];
            sink.begin(op.outWidth);
            for (auto &g : groups) {
                if (probe(*g.table, g.cursor, oid) == storage::kNoRow)
                    continue;
                for (const auto &pc : *g.cols) {
                    Slot s = readCell(*g.table, g.cursor.pos,
                                      static_cast<size_t>(pc.col));
                    sink.cell(pc.out, s);
                    if (!isNull(s))
                        checksum ^= cellDigest(pc.attr, s);
                }
            }
            sink.end(oid);
        }
        sink.out.checksum ^= checksum;
    }
};

/**
 * One registry flush per query: the runtime-labelled names below cost a
 * mutex + map lookup each, which is noise next to a query's execution
 * but would not be next to a morsel kernel's.
 */
void
flushQueryMetrics(const Database &db, const Query &q, uint64_t ns,
                  const Exec<NullTracer> &exec)
{
    auto &reg = obs::Registry::global();
    reg.counter("dvp_queries_total").add(1);
    reg.histogram("dvp_query_ns{query=\"" + q.name + "\"}").observe(ns);
    const std::string &layout = db.name();
    reg.counter("dvp_rows_scanned_total{layout=\"" + layout + "\"}")
        .add(exec.obs_rows_scanned);
    reg.counter("dvp_partition_touches_total{layout=\"" + layout + "\"}")
        .add(exec.obs_partition_touches);
    reg.counter("dvp_morsels_total").add(exec.obs_morsels);
    reg.counter("dvp_blocks_scanned_total").add(exec.obs_blocks_scanned);
    reg.counter("dvp_blocks_skipped_total").add(exec.obs_blocks_skipped);
}

/** Copy one execution's merged lane counters into @p s. */
void
fillStats(QueryStats &s, const Exec<NullTracer> &exec,
          const ResultSet &rs)
{
    s.rowsScanned = exec.obs_rows_scanned;
    s.partitionTouches = exec.obs_partition_touches;
    s.blocksScanned = exec.obs_blocks_scanned;
    s.blocksSkipped = exec.obs_blocks_skipped;
    s.matches = exec.obs_matches;
    s.rowsOut = rs.rowCount();
    s.morsels = exec.obs_morsels;
    for (size_t i = 0; i < 4; ++i)
        s.compressedEval[i] = exec.obs_compressed[i];
    s.projectNs = exec.obs_project_ns;
    s.filterNs = exec.obs_filter_ns;
    s.retrieveNs = exec.obs_retrieve_ns;
    s.joinNs = exec.obs_join_ns;
}

} // namespace

const PhysicalPlan *
Executor::bound(const Query &q, std::shared_ptr<const PhysicalPlan> &keep,
                PhysicalPlan &local, bool *cache_hit)
{
    DVP_TRACE_SPAN(plan_span, "plan", q.name.c_str());
    if (plan_cache != nullptr) {
        keep = plan_cache->bind(*db, q, cache_hit);
        return keep.get();
    }
    local = bindPlan(*db, q);
    return &local;
}

ResultSet
Executor::run(const Query &q, QueryStats *stats)
{
    DVP_TRACE_SPAN(query_span, "query", q.name.c_str());
    auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<const PhysicalPlan> keep;
    PhysicalPlan local;
    bool cache_hit = false;
    const PhysicalPlan *plan = bound(q, keep, local, &cache_hit);
    auto t1 = std::chrono::steady_clock::now();
    Exec<NullTracer> exec(*db, *plan, NullTracer{}, threads_,
                          morsel_rows, vectorized_);
    ResultSet rs = ops::runQuery(exec, q);
    auto ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    flushQueryMetrics(*db, q, ns, exec);
    if (stats != nullptr) {
        fillStats(*stats, exec, rs);
        stats->execNs = ns;
        stats->planNs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                 t0)
                .count());
        stats->planSource = plan_cache == nullptr
                                ? PlanSource::AdHoc
                                : (cache_hit ? PlanSource::CacheHit
                                             : PlanSource::CacheMiss);
        stats->planEpoch = plan->epoch;
        stats->layoutFingerprint = plan->layoutFingerprint;
        stats->threads = threads_;
    }
    return rs;
}

ResultSet
Executor::run(const Query &q, perf::MemoryHierarchy &mh)
{
    // Trace-pinned: one thread, one hierarchy, the paper's exact
    // access sequence (see executor.hh).  Binding performs no table
    // reads, so the simulated counters match the unbound executor's.
    // Compressed tables have no record pointers for sealed rows, so
    // they cannot produce the paper's address trace.
    invariant(!db->compressed(),
              "simulated traces require an uncompressed database");
    std::shared_ptr<const PhysicalPlan> keep;
    PhysicalPlan local;
    const PhysicalPlan *plan = bound(q, keep, local);
    Exec<SimTracer> exec(*db, *plan, SimTracer{&mh, nullptr}, 1,
                         morsel_rows, false);
    return ops::runQuery(exec, q);
}

} // namespace dvp::engine

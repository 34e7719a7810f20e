/**
 * @file
 * The shared operator surface: one templated walk that drives every
 * layout backend — the partitioned engine (row / column / hybrid /
 * Hyrise / DVP) and the Argo1/Argo3 key-value stores.
 *
 * A Backend supplies the layout-specific kernels:
 *
 *   ResultSet   project(const Query &);            // Project
 *   Matches     matches(const Query &);            // WHERE clause scan
 *   ResultSet   retrieve(const Query &, Matches);  // materialize matches
 *   GroupCounts retrieveGroups(const Query &, Matches, size_t group_col);
 *   ResultSet   join(const Query &);               // self-join
 *   void        insertDoc(const storage::Document &);
 *
 * where `Matches` is whatever match representation the backend's scan
 * produces (sorted oids for the partitioned engine — computed by the
 * batched SelVec kernels of engine/kernels.hh on the timing path —
 * decision-site records for Argo).
 *
 * retrieve and retrieveGroups are one retrieval kernel with two sinks
 * (RowSink, GroupSink below): both make the same probes, record reads
 * and cell digests in the same order, so an aggregate retrieves every
 * cell its Select sub-query would (paper §VI-B) — it just folds each
 * match's grouping cell into a count instead of materializing a row.
 * Which cells that sub-query names is the query's: the paper templates
 * (nobench::QuerySet) keep SELECT *, while the SQL binder binds
 * COUNT(*) GROUP BY g to {g}.  The kind switch, the aggregate's
 * selection-first orchestration and group emission, and the
 * bulk-insert loop live here exactly once; they used to be duplicated
 * verbatim between src/engine/executor.cc and src/argo/argo_executor.cc.
 */

#ifndef DVP_ENGINE_OPERATORS_HH
#define DVP_ENGINE_OPERATORS_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/query.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace dvp::engine::ops
{

/**
 * The Select sub-query an Aggregate executes first (paper Q10, §VI-B:
 * "the engine first executes the selection part of the query, and then
 * it does the aggregation over the retrieved result").  A COUNT(*)
 * retrieves at least the grouping column.
 */
inline Query
aggregateSubQuery(const Query &q)
{
    Query sub = q;
    sub.kind = QueryKind::Select;
    if (!sub.selectAll &&
        std::find(sub.projected.begin(), sub.projected.end(),
                  sub.groupBy) == sub.projected.end())
        sub.projected.push_back(sub.groupBy);
    return sub;
}

/** Column of the grouping attribute within the sub-query's rows. */
inline size_t
aggregateGroupColumn(const Query &sub)
{
    if (sub.selectAll)
        return sub.groupBy; // rows are dense in AttrId order
    for (size_t i = 0; i < sub.projected.size(); ++i)
        if (sub.projected[i] == sub.groupBy)
            return i;
    return SIZE_MAX;
}

/** COUNT(*) per grouping key, plus the retrieval's cell checksum. */
struct GroupCounts
{
    std::unordered_map<storage::Slot, uint64_t> counts;
    uint64_t checksum = 0;
};

/**
 * Retrieval sinks.  A backend's retrieval kernel owns every probe,
 * record read and cell digest; per match it calls begin(width), then
 * cell(i, s) for each cell that lands in output column i (the AttrId
 * for SELECT *, the list position otherwise; unset columns are NULL),
 * then end(oid), and XORs the digests into out.checksum.  The sink
 * only decides what to keep.
 */

/** Select: one dense row per match, appended to the flat rows. */
struct RowSink
{
    ResultSet out;
    size_t reserved = 0; ///< rows to reserve once the width is known
    storage::Slot *row = nullptr;

    void
    reserve(size_t n)
    {
        out.oids.reserve(n);
        reserved = n;
    }
    void
    begin(size_t width)
    {
        if (out.rows.empty())
            out.rows.reserve(reserved, width);
        row = out.rows.appendRow(width);
    }
    void cell(size_t i, storage::Slot s) { row[i] = s; }
    void end(int64_t oid) { out.oids.push_back(oid); }
};

/**
 * Aggregate: count each match under the cell it would have had in
 * output column @ref col, allocating no row.  A grouping column the
 * layout never materialized reads as NULL, exactly like the dense row.
 */
struct GroupSink
{
    GroupCounts out;
    size_t col = SIZE_MAX; ///< output column of the grouping attribute
    storage::Slot key = storage::kNullSlot;

    explicit GroupSink(size_t col) : col(col) {}

    void reserve(size_t) {}
    void begin(size_t) { key = storage::kNullSlot; }
    void
    cell(size_t i, storage::Slot s)
    {
        if (i == col)
            key = s;
    }
    void end(int64_t) { ++out.counts[key]; }
};

template <class Backend>
ResultSet
select(Backend &b, const Query &q)
{
    auto matches = b.matches(q);
    return b.retrieve(q, matches);
}

/**
 * COUNT(*) ... GROUP BY: run the Select sub-query's scan and retrieval
 * with a GroupSink, then emit one [key, count] row per group in
 * ascending key order — the canonical order, so the rows never depend
 * on hash iteration or on how many lanes folded partial counts.
 */
template <class Backend>
ResultSet
aggregate(Backend &b, const Query &q)
{
    invariant(q.groupBy != storage::kNoAttr,
              "aggregate query needs a GROUP BY column");
    Query sub = aggregateSubQuery(q);
    auto matches = b.matches(sub);
    GroupCounts groups =
        b.retrieveGroups(sub, matches, aggregateGroupColumn(sub));

    DVP_TRACE_SPAN(fold_span, "merge", "aggregate fold");
    std::vector<std::pair<storage::Slot, uint64_t>> sorted(
        groups.counts.begin(), groups.counts.end());
    std::sort(sorted.begin(), sorted.end());
    ResultSet rs;
    rs.checksum = groups.checksum;
    rs.rows.reserve(sorted.size(), 2);
    for (const auto &[key, count] : sorted)
        rs.rows.append({key, static_cast<storage::Slot>(count)});
    return rs;
}

template <class Backend>
ResultSet
insert(Backend &b, const Query &q)
{
    invariant(q.insertDocs != nullptr, "insert query without a payload");
    for (const auto &doc : *q.insertDocs)
        b.insertDoc(doc);
    return ResultSet{};
}

/** Execute @p q against @p b: the one kind switch for all layouts. */
template <class Backend>
ResultSet
runQuery(Backend &b, const Query &q)
{
    switch (q.kind) {
      case QueryKind::Project:
        return b.project(q);
      case QueryKind::Select:
        return select(b, q);
      case QueryKind::Aggregate:
        return aggregate(b, q);
      case QueryKind::Join:
        return b.join(q);
      case QueryKind::Insert:
        return insert(b, q);
    }
    panic("unknown query kind");
}

} // namespace dvp::engine::ops

#endif // DVP_ENGINE_OPERATORS_HH

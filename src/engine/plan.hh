/**
 * @file
 * Bound physical plans.
 *
 * bindPlan() turns a logical Query into a PhysicalPlan of operator
 * nodes whose partition ids, column offsets, and driving table are
 * pre-resolved against one Database.  The executor then walks the plan
 * without consulting the catalog or the attribute index, so a cached
 * plan makes the hot path catalog-free (see plan_cache.hh).
 *
 * Plans reference partitions by *table index*, never by pointer: the
 * executor re-derives `const Table *` from its Database snapshot, so a
 * plan is valid exactly as long as the Database it was bound against
 * (tracked by the epoch stamp).  Predicate literals (Condition::lo/hi)
 * and insert payloads are NOT part of the plan — they flow in from the
 * Query at execution time, which is what lets every instance of a
 * template (Q5 with different keys, Q6 with different ranges) share
 * one cached plan.
 *
 * Binding performs no table reads, so the serial simulated access
 * sequence of a plan-driven execution is byte-for-byte the sequence
 * the unbound executor produced (Figs. 6-7 counters are unchanged).
 */

#ifndef DVP_ENGINE_PLAN_HH
#define DVP_ENGINE_PLAN_HH

#include <string>
#include <vector>

#include "engine/database.hh"
#include "engine/query.hh"

namespace dvp::engine
{

/**
 * Merge-scan projection: simultaneous scan of the involved partitions
 * by their sorted oid columns, emitting one output row per present oid.
 */
struct MergeScanProjectOp
{
    std::vector<storage::AttrId> attrs; ///< output columns, query order
    std::vector<int> tables;  ///< involved tables, first-appearance order
    std::vector<int> tbl_slot; ///< out col -> index into tables (-1 NULL)
    std::vector<int> tbl_col;  ///< out col -> column within that table
    int driving = -1;          ///< largest involved table (morsel source)
};

/** How a FilterScan collects the WHERE clause's matching oids. */
enum class FilterMode : uint8_t
{
    Presence,        ///< no predicate: presence union over all tables
    ColumnPredicate, ///< Eq/Between/NotNull scan of one located column
    AnyEq,           ///< merge scan of the flattened-array partitions
    Empty,           ///< condition column unknown: no matches
    NullScan         ///< IsNull: presence union minus NotNull matches
};

/** Bound WHERE clause scan. */
struct FilterScanOp
{
    FilterMode mode = FilterMode::Presence;
    storage::AttrId attr = storage::kNoAttr; ///< condition column
    int table = -1; ///< ColumnPredicate: owning table
    int col = -1;   ///< ColumnPredicate: column within it
    std::vector<int> tables;            ///< AnyEq scan tables
    std::vector<std::vector<int>> cols; ///< AnyEq columns per table
    int driving = -1; ///< largest scanned table (morsel source)
};

/**
 * Retrieval of matched oids through the sorted-oid primary-key index.
 * SELECT * probes every partition (schema-scattered into a dense row);
 * an explicit projection list probes only the owning partitions,
 * grouped so each table's cursor is consulted once per match.
 */
struct IndexRetrieveOp
{
    bool selectAll = true;
    size_t outWidth = 0; ///< explicit mode: output row width

    struct Col
    {
        size_t out;           ///< output row index
        int col;              ///< column within the group's table
        storage::AttrId attr; ///< attribute (for the cell digest)
    };
    struct Group
    {
        int table = -1;
        std::vector<Col> cols;
    };
    std::vector<Group> groups; ///< explicit mode, first-appearance order
};

/** COUNT(*) GROUP BY fold over the selection sub-query's rows. */
struct GroupAggregateOp
{
    size_t groupCol = SIZE_MAX; ///< grouping column in the sub-result
};

/** Self-join: build from left matches, probe the right join column. */
struct HashSelfJoinOp
{
    int buildTable = -1, buildCol = -1; ///< left ON column location
    int probeTable = -1, probeCol = -1; ///< right ON column location
};

/** Bulk document insert (no binding: routing uses the live schema). */
struct BulkInsertOp
{
};

/** A bound operator tree for one query template on one Database. */
struct PhysicalPlan
{
    QueryKind kind = QueryKind::Project;
    std::string templateName; ///< Query::name at bind time

    uint64_t signature = 0; ///< template attribute signature (cache key)
    std::vector<uint64_t> key; ///< canonical template key (collision guard)

    uint64_t epoch = 0;             ///< Database::epoch() bound against
    uint64_t layoutFingerprint = 0; ///< Layout::fingerprint() at bind
    size_t catalogWidth = 0;        ///< catalog attr count at bind

    // Operator nodes; which ones are live depends on kind:
    //   Project            project
    //   Select             filter -> retrieve
    //   Aggregate          filter -> retrieve -> aggregate
    //   Join               filter -> join
    //   Insert             insert
    // (An Aggregate's filter/retrieve are bound against its selection
    // sub-query, per the paper's selection-first Q10 semantics.)
    MergeScanProjectOp project;
    FilterScanOp filter;
    IndexRetrieveOp retrieve;
    GroupAggregateOp aggregate;
    HashSelfJoinOp join;
    BulkInsertOp insert;

    /** Multi-line human-readable dump (EXPLAIN's body). */
    std::string describe(const Database &db) const;
};

/**
 * Template attribute signature: hashes the query's shape (kind,
 * projection, condition attributes, grouping and join columns) but not
 * its literal values, so all instances of one template collide on
 * purpose.  Distinct templates are disambiguated by PhysicalPlan::key.
 */
uint64_t planSignature(const Query &q);

/** Canonical flat encoding of the signature's fields. */
std::vector<uint64_t> templateKey(const Query &q);

/** Bind @p q against @p db.  Performs no table reads. */
PhysicalPlan bindPlan(const Database &db, const Query &q);

} // namespace dvp::engine

#endif // DVP_ENGINE_PLAN_HH

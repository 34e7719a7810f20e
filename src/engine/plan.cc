#include "engine/plan.hh"

#include <cinttypes>
#include <cstdio>

#include "engine/operators.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace dvp::engine
{

using storage::AttrId;

namespace
{

/** Largest table among @p tables (bind-time driving-table choice). */
int
drivingTable(const Database &db, const std::vector<int> &tables)
{
    int driving = -1;
    for (int t : tables)
        if (driving < 0 || db.table(t).rows() > db.table(driving).rows())
            driving = t;
    return driving;
}

void
bindProject(const Database &db, const Query &q, MergeScanProjectOp &op)
{
    op.attrs = q.selectionPart(db.data().catalog);
    invariant(!op.attrs.empty(), "projection with no attributes");

    // Map output columns to (involved-table slot, column).  Tables are
    // recorded in first-appearance order of the projection list — the
    // same order the unbound executor visited them, so the merge scan's
    // traced access sequence is unchanged.
    op.tbl_slot.assign(op.attrs.size(), -1);
    op.tbl_col.assign(op.attrs.size(), -1);
    std::vector<int> tbl_index(db.tableCount(), -1);
    for (size_t i = 0; i < op.attrs.size(); ++i) {
        AttrLoc loc = db.locate(op.attrs[i]);
        if (loc.table < 0)
            continue; // attribute unknown to this layout: all NULL
        if (tbl_index[loc.table] < 0) {
            tbl_index[loc.table] = static_cast<int>(op.tables.size());
            op.tables.push_back(loc.table);
        }
        op.tbl_slot[i] = tbl_index[loc.table];
        op.tbl_col[i] = loc.col;
    }
    op.driving = drivingTable(db, op.tables);
}

void
bindFilter(const Database &db, const Condition &c, FilterScanOp &op)
{
    if (c.op == CondOp::None) {
        op.mode = FilterMode::Presence;
        std::vector<int> all(db.tableCount());
        for (size_t t = 0; t < db.tableCount(); ++t)
            all[t] = static_cast<int>(t);
        op.driving = drivingTable(db, all);
        return;
    }

    if (c.op == CondOp::Eq || c.op == CondOp::Between ||
        c.op == CondOp::NotNull) {
        op.attr = c.attr;
        AttrLoc loc = db.locate(c.attr);
        if (loc.table < 0) {
            op.mode = FilterMode::Empty; // unknown column: no matches
            return;
        }
        // NotNull is sound as one column scan: an object with a
        // non-null cell is necessarily stored in the attribute's
        // partition (sparse omission drops all-null records only).
        op.mode = FilterMode::ColumnPredicate;
        op.table = loc.table;
        op.col = loc.col;
        op.driving = loc.table;
        return;
    }

    if (c.op == CondOp::IsNull) {
        op.attr = c.attr;
        AttrLoc loc = db.locate(c.attr);
        std::vector<int> all(db.tableCount());
        for (size_t t = 0; t < db.tableCount(); ++t)
            all[t] = static_cast<int>(t);
        op.driving = drivingTable(db, all);
        if (loc.table < 0) {
            // Unknown column: every present object has a NULL there.
            op.mode = FilterMode::Presence;
            return;
        }
        // IsNull cannot be answered from the attribute's partition
        // alone: objects omitted from it (sparse omission) are NULL
        // too.  The executor takes the presence union minus the
        // NotNull matches of the located column.
        op.mode = FilterMode::NullScan;
        op.table = loc.table;
        op.col = loc.col;
        return;
    }

    invariant(c.op == CondOp::AnyEq, "unhandled condition op");
    std::vector<int> tbl_index(db.tableCount(), -1);
    for (AttrId a : c.anyAttrs) {
        AttrLoc loc = db.locate(a);
        if (loc.table < 0)
            continue;
        if (tbl_index[loc.table] < 0) {
            tbl_index[loc.table] = static_cast<int>(op.tables.size());
            op.tables.push_back(loc.table);
            op.cols.emplace_back();
        }
        op.cols[tbl_index[loc.table]].push_back(loc.col);
    }
    op.mode = op.tables.empty() ? FilterMode::Empty : FilterMode::AnyEq;
    op.driving = drivingTable(db, op.tables);
}

void
bindRetrieve(const Database &db, const Query &q, IndexRetrieveOp &op)
{
    op.selectAll = q.selectAll;
    if (q.selectAll)
        return; // probes every partition; widths come from the live db

    op.outWidth = q.projected.size();
    std::vector<int> tbl_index(db.tableCount(), -1);
    for (size_t i = 0; i < q.projected.size(); ++i) {
        AttrLoc loc = db.locate(q.projected[i]);
        if (loc.table < 0)
            continue;
        if (tbl_index[loc.table] < 0) {
            tbl_index[loc.table] = static_cast<int>(op.groups.size());
            op.groups.push_back(IndexRetrieveOp::Group{loc.table, {}});
        }
        op.groups[tbl_index[loc.table]].cols.push_back(
            IndexRetrieveOp::Col{i, loc.col, q.projected[i]});
    }
}

void
bindJoin(const Database &db, const Query &q, HashSelfJoinOp &op)
{
    AttrLoc lloc = db.locate(q.joinLeftAttr);
    op.buildTable = lloc.table;
    op.buildCol = lloc.col;
    AttrLoc rloc = db.locate(q.joinRightAttr);
    op.probeTable = rloc.table;
    op.probeCol = rloc.col;
}

const char *
kindName(QueryKind k)
{
    switch (k) {
      case QueryKind::Project:
        return "Project";
      case QueryKind::Select:
        return "Select";
      case QueryKind::Aggregate:
        return "Aggregate";
      case QueryKind::Join:
        return "Join";
      case QueryKind::Insert:
        return "Insert";
    }
    return "?";
}

std::string
attrName(const Database &db, AttrId a)
{
    if (a == storage::kNoAttr)
        return "<none>";
    if (a >= db.data().catalog.attrCount())
        return "<unknown>";
    return db.data().catalog.name(a);
}

std::string
partitionList(const std::vector<int> &tables)
{
    std::string out = "[";
    for (size_t i = 0; i < tables.size(); ++i) {
        if (i)
            out += ",";
        out += "p" + std::to_string(tables[i]);
    }
    return out + "]";
}

} // namespace

uint64_t
planSignature(const Query &q)
{
    uint64_t h = 1469598103934665603ull; // FNV-1a
    for (uint64_t v : templateKey(q)) {
        h ^= v;
        h *= 1099511628211ull;
    }
    return h;
}

std::vector<uint64_t>
templateKey(const Query &q)
{
    std::vector<uint64_t> key;
    key.reserve(8 + q.projected.size() + q.cond.anyAttrs.size());
    key.push_back(static_cast<uint64_t>(q.kind));
    key.push_back(q.selectAll ? 1 : 0);
    key.push_back(q.projected.size());
    for (AttrId a : q.projected)
        key.push_back(a);
    key.push_back(static_cast<uint64_t>(q.cond.op));
    key.push_back(q.cond.attr);
    key.push_back(q.cond.anyAttrs.size());
    for (AttrId a : q.cond.anyAttrs)
        key.push_back(a);
    key.push_back(q.groupBy);
    key.push_back(q.joinLeftAttr);
    key.push_back(q.joinRightAttr);
    return key;
}

PhysicalPlan
bindPlan(const Database &db, const Query &q)
{
    DVP_COUNTER_INC("dvp_plan_binds_total");
    PhysicalPlan plan;
    plan.kind = q.kind;
    plan.templateName = q.name;
    plan.signature = planSignature(q);
    plan.key = templateKey(q);
    plan.epoch = db.epoch();
    plan.layoutFingerprint = db.layoutFingerprint();
    plan.catalogWidth = db.data().catalog.attrCount();

    switch (q.kind) {
      case QueryKind::Project:
        bindProject(db, q, plan.project);
        break;
      case QueryKind::Select:
        bindFilter(db, q.cond, plan.filter);
        bindRetrieve(db, q, plan.retrieve);
        break;
      case QueryKind::Aggregate: {
        // Bound against the selection sub-query the fold will run.
        Query sub = ops::aggregateSubQuery(q);
        bindFilter(db, sub.cond, plan.filter);
        bindRetrieve(db, sub, plan.retrieve);
        plan.aggregate.groupCol = ops::aggregateGroupColumn(sub);
        break;
      }
      case QueryKind::Join:
        bindFilter(db, q.cond, plan.filter);
        bindJoin(db, q, plan.join);
        break;
      case QueryKind::Insert:
        break;
    }
    return plan;
}

std::string
PhysicalPlan::describe(const Database &db) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "PhysicalPlan %s kind=%s epoch=%" PRIu64
                  " layout=0x%016" PRIx64 " signature=0x%016" PRIx64 "\n",
                  templateName.empty() ? "<unnamed>"
                                       : templateName.c_str(),
                  kindName(kind), epoch, layoutFingerprint, signature);
    std::string out = line;

    auto filterLine = [&]() {
        switch (filter.mode) {
          case FilterMode::Presence:
            std::snprintf(line, sizeof(line),
                          "  FilterScan[presence] partitions=%zu "
                          "driving=p%d\n",
                          db.tableCount(), filter.driving);
            break;
          case FilterMode::ColumnPredicate:
            std::snprintf(line, sizeof(line),
                          "  FilterScan[predicate] attr=%s "
                          "partition=p%d col=%d (%zu rows, %zu "
                          "blocks)\n",
                          attrName(db, filter.attr).c_str(),
                          filter.table, filter.col,
                          filter.table >= 0
                              ? db.table(filter.table).rows()
                              : size_t{0},
                          filter.table >= 0
                              ? db.table(filter.table).blockCount()
                              : size_t{0});
            break;
          case FilterMode::AnyEq:
            std::snprintf(line, sizeof(line),
                          "  FilterScan[any-eq] partitions=%s "
                          "driving=p%d\n",
                          partitionList(filter.tables).c_str(),
                          filter.driving);
            break;
          case FilterMode::Empty:
            std::snprintf(line, sizeof(line),
                          "  FilterScan[empty] (condition column not "
                          "materialized)\n");
            break;
          case FilterMode::NullScan:
            std::snprintf(line, sizeof(line),
                          "  FilterScan[is-null] attr=%s presence "
                          "minus p%d.%d (driving=p%d)\n",
                          attrName(db, filter.attr).c_str(),
                          filter.table, filter.col, filter.driving);
            break;
        }
        out += line;
    };

    auto retrieveLine = [&]() {
        if (retrieve.selectAll) {
            std::snprintf(line, sizeof(line),
                          "  IndexRetrieve[*] width=%zu partitions=%zu"
                          "\n",
                          db.data().catalog.attrCount(),
                          db.tableCount());
        } else {
            std::string groups;
            for (const auto &g : retrieve.groups) {
                if (!groups.empty())
                    groups += ",";
                groups += "p" + std::to_string(g.table) + ":" +
                          std::to_string(g.cols.size());
            }
            std::snprintf(line, sizeof(line),
                          "  IndexRetrieve cols=%zu groups=[%s]\n",
                          retrieve.outWidth, groups.c_str());
        }
        out += line;
    };

    switch (kind) {
      case QueryKind::Project: {
        std::snprintf(line, sizeof(line),
                      "  MergeScanProject cols=%zu partitions=%s "
                      "driving=p%d\n",
                      project.attrs.size(),
                      partitionList(project.tables).c_str(),
                      project.driving);
        out += line;
        break;
      }
      case QueryKind::Select:
        filterLine();
        retrieveLine();
        break;
      case QueryKind::Aggregate:
        filterLine();
        retrieveLine();
        std::snprintf(line, sizeof(line),
                      "  GroupAggregate col=%zu\n", aggregate.groupCol);
        out += line;
        break;
      case QueryKind::Join:
        filterLine();
        std::snprintf(line, sizeof(line),
                      "  HashSelfJoin build=p%d.%d probe=p%d.%d\n",
                      join.buildTable, join.buildCol, join.probeTable,
                      join.probeCol);
        out += line;
        break;
      case QueryKind::Insert:
        std::snprintf(line, sizeof(line),
                      "  BulkInsert partitions=%zu\n", db.tableCount());
        out += line;
        break;
    }
    return out;
}

} // namespace dvp::engine

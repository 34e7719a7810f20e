#include "argo/argo_executor.hh"

#include <algorithm>
#include <climits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "engine/operators.hh"
#include "util/logging.hh"

namespace dvp::argo
{

using engine::CondOp;
using engine::Query;
using engine::QueryKind;
using engine::ResultSet;
using storage::AttrId;
using storage::isNull;
using storage::kNullSlot;
using storage::Slot;

namespace
{

/**
 * The Argo execution backend.  Its public surface (project / matches /
 * retrieve / retrieveGroups / join / insertDoc) is the ops::runQuery
 * Backend concept shared with the partitioned engine, so the kind
 * switch, aggregate orchestration, and insert loop live in
 * engine/operators.hh once.
 */
template <class Tracer>
class Exec
{
  public:
    Exec(ArgoStore &store, Tracer tr) : store(store), tr(tr) {}

  private:
    ArgoStore &store;
    Tracer tr;

    bool argo1() const { return store.variant() == Variant::Argo1; }

    /** Read oid + key of a record (the scan's inspection step). */
    std::pair<int64_t, AttrId>
    readHead(const ArgoTable &t, size_t row)
    {
        const Slot *rec = t.record(row);
        tr.touch(rec, 16);
        return {rec[0], static_cast<AttrId>(rec[1])};
    }

    /** Read a record's value (whichever typed column holds it). */
    Slot
    readValue(const ArgoTable &t, size_t row)
    {
        const Slot *rec = t.record(row);
        if (!argo1()) {
            tr.touch(rec + ArgoCols::kVal, 8);
            return rec[ArgoCols::kVal];
        }
        // Argo1: inspect the three typed columns.
        tr.touch(rec + ArgoCols::kStr, 24);
        if (!isNull(rec[ArgoCols::kStr]))
            return rec[ArgoCols::kStr];
        if (!isNull(rec[ArgoCols::kNum]))
            return rec[ArgoCols::kNum];
        return rec[ArgoCols::kBool];
    }

    /** Tables a predicate's scan must visit. */
    std::vector<const ArgoTable *>
    condTables(const engine::Condition &c)
    {
        if (argo1())
            return {&store.table(0)};
        // Argo3: route by the predicate value's type.  BETWEEN is
        // numeric; Eq/AnyEq follow the literal's type.
        bool str = c.op != CondOp::Between &&
                   storage::isStringSlot(c.lo);
        return {&store.table(str ? 0 : 1)};
    }

    /** All tables of the store. */
    std::vector<const ArgoTable *>
    allTables()
    {
        std::vector<const ArgoTable *> ts;
        for (size_t i = 0; i < store.tableCount(); ++i)
            ts.push_back(&store.table(i));
        return ts;
    }

    /**
     * Scan one object's records in @p t starting at @p start; stop as
     * soon as the predicate is decidable.  Returns {decided-true,
     * decision row}; the caller uses the primary-key index to jump
     * past the remainder of the object (the paper's index skip).
     */
    std::pair<bool, size_t>
    scanGroupForCond(const ArgoTable &t, size_t start, int64_t oid,
                     const engine::Condition &c,
                     const std::unordered_set<AttrId> &cond_keys)
    {
        size_t r = start;
        while (r < t.rows()) {
            auto [o, key] = readHead(t, r);
            if (o != oid)
                break;
            if (cond_keys.count(key)) {
                Slot v = readValue(t, r);
                if (c.matches(v))
                    return {true, r};
                // Eq/Between predicates are decided by their single
                // attribute; AnyEq keeps scanning other array slots.
                if (c.op != CondOp::AnyEq)
                    return {false, r};
            }
            ++r;
        }
        return {false, r};
    }

  public:
    ResultSet
    project(const Query &q)
    {
        const auto &catalog = store.data().catalog;
        std::vector<AttrId> attrs = q.selectionPart(catalog);
        std::unordered_map<AttrId, size_t> out_col;
        for (size_t i = 0; i < attrs.size(); ++i)
            out_col.emplace(attrs[i], i);

        // Argo has no per-attribute storage: scan every table's key
        // column end to end.
        std::map<int64_t, std::vector<Slot>> partial;
        for (const ArgoTable *t : allTables()) {
            for (size_t r = 0; r < t->rows(); ++r) {
                auto [oid, key] = readHead(*t, r);
                auto it = out_col.find(key);
                if (it == out_col.end())
                    continue;
                Slot v = readValue(*t, r);
                if (isNull(v))
                    continue;
                auto &row = partial[oid];
                if (row.empty())
                    row.assign(attrs.size(), kNullSlot);
                row[it->second] = v;
            }
        }

        ResultSet rs;
        for (auto &[oid, row] : partial) {
            for (size_t i = 0; i < row.size(); ++i)
                if (!isNull(row[i]))
                    rs.checksum ^=
                        engine::resultCellDigest(attrs[i], row[i]);
            rs.oids.push_back(oid);
            rs.rows.append(row);
        }
        return rs;
    }

    /** One WHERE-clause match: the object and its decision site. */
    struct Match
    {
        int64_t oid;
        const ArgoTable *table; ///< table whose scan decided the match
        size_t pos;             ///< decision row within that table
    };

    /** Matches of the WHERE clause, in increasing oid order. */
    std::vector<Match>
    matches(const Query &q)
    {
        std::vector<Match> matches;
        const engine::Condition &c = q.cond;

        if (c.op == CondOp::None) {
            // Every stored object qualifies.
            std::unordered_set<int64_t> seen;
            for (const ArgoTable *t : allTables())
                for (size_t r = 0; r < t->rows(); ++r)
                    seen.insert(readHead(*t, r).first);
            std::vector<int64_t> oids(seen.begin(), seen.end());
            std::sort(oids.begin(), oids.end());
            matches.reserve(oids.size());
            for (int64_t oid : oids)
                matches.push_back({oid, nullptr, 0});
            return matches;
        }

        std::unordered_set<AttrId> cond_keys;
        if (c.op == CondOp::AnyEq)
            cond_keys.insert(c.anyAttrs.begin(), c.anyAttrs.end());
        else
            cond_keys.insert(c.attr);

        for (const ArgoTable *t : condTables(c)) {
            size_t r = 0;
            while (r < t->rows()) {
                int64_t oid = readHead(*t, r).first;
                auto [hit, pos] =
                    scanGroupForCond(*t, r, oid, c, cond_keys);
                if (hit)
                    matches.push_back({oid, t, pos});
                // Jump to the next object via the primary-key index
                // without touching the object's remaining records.
                r = t->lowerBound(oid + 1);
            }
        }
        if (store.variant() == Variant::Argo3) {
            std::sort(matches.begin(), matches.end(),
                      [](const Match &a, const Match &b) {
                          return a.oid < b.oid;
                      });
            matches.erase(
                std::unique(matches.begin(), matches.end(),
                            [](const Match &a, const Match &b) {
                                return a.oid == b.oid;
                            }),
                matches.end());
        }
        return matches;
    }

    /** Materialize the already-matched objects. */
    ResultSet
    retrieve(const Query &q, const std::vector<Match> &matches)
    {
        return retrieveInto(q, matches, engine::ops::RowSink{});
    }

    /** retrieve() folded into COUNT(*) per output column @p group_col. */
    engine::ops::GroupCounts
    retrieveGroups(const Query &q, const std::vector<Match> &matches,
                   size_t group_col)
    {
        return retrieveInto(q, matches,
                            engine::ops::GroupSink(group_col));
    }

    ResultSet
    join(const Query &q)
    {
        std::vector<Match> left = matches(q);

        // Build: left oids keyed by the left join attribute's value.
        std::unordered_multimap<Slot, int64_t> build;
        for (const Match &m : left) {
            int64_t oid = m.oid;
            for (const ArgoTable *t : allTables()) {
                size_t r = t->lowerBound(oid);
                bool found = false;
                for (; r < t->rows(); ++r) {
                    auto [o, key] = readHead(*t, r);
                    if (o != oid)
                        break;
                    if (key == q.joinLeftAttr) {
                        Slot v = readValue(*t, r);
                        if (!isNull(v))
                            build.emplace(v, oid);
                        found = true;
                        break;
                    }
                }
                if (found)
                    break;
            }
        }

        ResultSet rs;
        if (build.empty())
            return rs;

        // Probe: scan for right join-attribute records.
        std::vector<std::pair<int64_t, int64_t>> pairs;
        std::vector<const ArgoTable *> probe_tables =
            argo1() ? allTables()
                    : std::vector<const ArgoTable *>{&store.table(0)};
        for (const ArgoTable *t : probe_tables) {
            for (size_t r = 0; r < t->rows(); ++r) {
                auto [roid, key] = readHead(*t, r);
                if (key != q.joinRightAttr)
                    continue;
                Slot v = readValue(*t, r);
                if (isNull(v))
                    continue;
                auto [lo, hi] = build.equal_range(v);
                for (auto it = lo; it != hi; ++it)
                    pairs.emplace_back(it->second, roid);
            }
        }

        // SELECT *: materialize both sides of every pair.
        auto digest = [&](AttrId key, Slot v) {
            rs.checksum ^= engine::resultCellDigest(key, v);
        };
        for (auto [loid, roid] : pairs) {
            for (int64_t oid : {loid, roid})
                for (const ArgoTable *t : allTables())
                    retrieveFrom(*t, oid, t->lowerBound(oid), digest);
            rs.rows.append({loid, roid});
        }
        return rs;
    }

    void
    insertDoc(const storage::Document &doc)
    {
        store.insert(doc);
    }

  private:
    /**
     * Hand every non-null (key, value) record of object @p oid in
     * @p t, from row @p start to the object's end, to @p f.
     */
    template <class F>
    void
    retrieveFrom(const ArgoTable &t, int64_t oid, size_t start, F &&f)
    {
        for (size_t r = start; r < t.rows(); ++r) {
            auto [o, key] = readHead(t, r);
            if (o != oid)
                break;
            Slot v = readValue(t, r);
            if (!isNull(v))
                f(key, v);
        }
    }

    /**
     * Every record of a matched object.  The table whose scan decided
     * the match is read from the decision row: per the paper, "it may
     * be necessary to scan backward all the way until the beginning of
     * the current object id", then forward to its end.  The backward
     * leg is what breaks the page-stream prefetchability of Argo's
     * otherwise contiguous tables (paper VI-C2).  Other tables are
     * entered through the primary-key index.
     */
    template <class F>
    void
    retrieveMatch(const Match &m, F &&f)
    {
        for (const ArgoTable *t : allTables()) {
            size_t start = m.pos;
            if (t == m.table) {
                while (start > 0 && readHead(*t, start - 1).first == m.oid)
                    --start;
            } else {
                start = t->lowerBound(m.oid);
            }
            retrieveFrom(*t, m.oid, start, f);
        }
    }

    /**
     * Retrieve the already-matched objects into @p sink (see
     * engine/operators.hh).  Argo has no per-attribute storage, so an
     * explicit projection list still reads whole objects into one
     * reused full-width scratch row, then hands the sink (and the
     * checksum) only the projected cells.
     */
    template <class Sink>
    decltype(Sink::out)
    retrieveInto(const Query &q, const std::vector<Match> &matches,
                 Sink sink)
    {
        const size_t width = store.data().catalog.attrCount();
        // Reserves cost no traced accesses, so the simulated counters
        // are unchanged.
        sink.reserve(matches.size());
        uint64_t checksum = 0;

        if (q.selectAll) {
            for (const Match &m : matches) {
                sink.begin(width);
                retrieveMatch(m, [&](AttrId key, Slot v) {
                    if (key < width)
                        sink.cell(key, v);
                    checksum ^= engine::resultCellDigest(key, v);
                });
                sink.end(m.oid);
            }
            sink.out.checksum = checksum;
            return std::move(sink.out);
        }

        std::unordered_map<AttrId, size_t> out_col;
        for (size_t i = 0; i < q.projected.size(); ++i)
            out_col.emplace(q.projected[i], i);
        std::vector<Slot> full(width, kNullSlot);
        for (const Match &m : matches) {
            std::fill(full.begin(), full.end(), kNullSlot);
            retrieveMatch(m, [&](AttrId key, Slot v) {
                if (key < width)
                    full[key] = v;
            });
            sink.begin(q.projected.size());
            for (const auto &[attr, out] : out_col) {
                if (attr < width && !isNull(full[attr])) {
                    sink.cell(out, full[attr]);
                    checksum ^=
                        engine::resultCellDigest(attr, full[attr]);
                }
            }
            sink.end(m.oid);
        }
        sink.out.checksum = checksum;
        return std::move(sink.out);
    }
};

} // namespace

ResultSet
ArgoExecutor::run(const Query &q)
{
    Exec<engine::NullTracer> exec(*store, engine::NullTracer{});
    return engine::ops::runQuery(exec, q);
}

ResultSet
ArgoExecutor::run(const Query &q, perf::MemoryHierarchy &mh)
{
    Exec<engine::SimTracer> exec(*store, engine::SimTracer{&mh, nullptr});
    return engine::ops::runQuery(exec, q);
}

} // namespace dvp::argo

/**
 * @file
 * Ground-truth tests: a deliberately naive reference executor computes
 * every NoBench query straight from the encoded documents (no tables,
 * no layouts, no cursors), and the real engine must match it.  This
 * breaks the symmetry of the cross-engine equality tests, which could
 * in principle all share one consistent bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "engine/database.hh"
#include "engine/executor.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"

namespace dvp::engine
{
namespace
{

using storage::AttrId;
using storage::Document;
using storage::isNull;
using storage::kNullSlot;
using storage::Slot;

/** Reference semantics computed directly over documents. */
class Reference
{
  public:
    explicit Reference(const DataSet &data) : data(&data) {}

    ResultSet
    run(const Query &q) const
    {
        switch (q.kind) {
          case QueryKind::Project:
            return project(q);
          case QueryKind::Select:
            return select(q);
          case QueryKind::Aggregate:
            return aggregate(q);
          case QueryKind::Join:
            return join(q);
          default:
            ADD_FAILURE() << "reference does not model inserts";
            return {};
        }
    }

  private:
    bool
    matches(const Document &doc, const Condition &c) const
    {
        switch (c.op) {
          case CondOp::None:
            return true;
          case CondOp::Eq:
          case CondOp::Between:
            return c.matches(doc.slotOf(c.attr));
          case CondOp::AnyEq:
            for (AttrId a : c.anyAttrs)
                if (c.matches(doc.slotOf(a)))
                    return true;
            return false;
          case CondOp::IsNull: {
            // The engine answers IS NULL as presence-minus-NotNull, so
            // only documents stored somewhere (>= 1 non-null cell) can
            // match; absent-from-storage objects never surface.
            bool present = false;
            for (const auto &[a, s] : doc.attrs)
                if (!isNull(s)) {
                    present = true;
                    break;
                }
            return present && isNull(doc.slotOf(c.attr));
          }
          case CondOp::NotNull:
            return !isNull(doc.slotOf(c.attr));
        }
        return false;
    }

    std::vector<Slot>
    materialize(const Document &doc, const Query &q) const
    {
        if (q.selectAll) {
            std::vector<Slot> row(data->catalog.attrCount(), kNullSlot);
            for (const auto &[attr, slot] : doc.attrs)
                if (attr < row.size())
                    row[attr] = slot;
            return row;
        }
        std::vector<Slot> row(q.projected.size(), kNullSlot);
        for (size_t i = 0; i < q.projected.size(); ++i)
            row[i] = doc.slotOf(q.projected[i]);
        return row;
    }

    ResultSet
    project(const Query &q) const
    {
        ResultSet rs;
        for (const auto &doc : data->docs) {
            std::vector<Slot> row = materialize(doc, q);
            bool any = std::any_of(row.begin(), row.end(),
                                   [](Slot s) { return !isNull(s); });
            if (any) {
                rs.oids.push_back(doc.oid);
                rs.rows.append(row);
            }
        }
        return rs;
    }

    ResultSet
    select(const Query &q) const
    {
        ResultSet rs;
        for (const auto &doc : data->docs) {
            if (!matches(doc, q.cond))
                continue;
            rs.oids.push_back(doc.oid);
            rs.rows.append(materialize(doc, q));
        }
        return rs;
    }

    ResultSet
    aggregate(const Query &q) const
    {
        std::map<Slot, int64_t> counts;
        for (const auto &doc : data->docs)
            if (matches(doc, q.cond))
                ++counts[doc.slotOf(q.groupBy)];
        ResultSet rs;
        for (const auto &[key, count] : counts)
            rs.rows.append({key, count});
        return rs;
    }

    ResultSet
    join(const Query &q) const
    {
        ResultSet rs;
        for (const auto &left : data->docs) {
            if (!matches(left, q.cond))
                continue;
            Slot key = left.slotOf(q.joinLeftAttr);
            if (isNull(key))
                continue;
            for (const auto &right : data->docs)
                if (right.slotOf(q.joinRightAttr) == key)
                    rs.rows.append({left.oid, right.oid});
        }
        return rs;
    }

    const DataSet *data;
};

struct GtWorld
{
    nobench::Config cfg;
    DataSet data;
    std::unique_ptr<nobench::QuerySet> qs;
    std::unique_ptr<Database> db;

    GtWorld()
    {
        cfg.numDocs = 700;
        cfg.seed = 90210;
        data = nobench::generateDataSet(cfg);
        qs = std::make_unique<nobench::QuerySet>(data, cfg);
        db = std::make_unique<Database>(
            data, layout::Layout::fixedSize(data.catalog.allAttrs(), 16),
            "gt");
    }
};

GtWorld &
world()
{
    static GtWorld w;
    return w;
}

class GroundTruth
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GroundTruth, EngineMatchesNaiveSemantics)
{
    auto [tmpl, seed] = GetParam();
    GtWorld &w = world();
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
    Query q = w.qs->instantiate(tmpl, rng);

    Reference ref(w.data);
    ResultSet expected = ref.run(q);

    Executor exec(*w.db);
    ResultSet got = exec.run(q);

    EXPECT_EQ(got.rowCount(), expected.rowCount()) << q.name;
    EXPECT_TRUE(got.equals(expected)) << q.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplatesThreeSeeds, GroundTruth,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(nobench::kNumTemplates)),
        ::testing::Values(1, 2, 3)),
    [](const auto &info) {
        return "Q" + std::to_string(std::get<0>(info.param) + 1) +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(GroundTruthShifted, ShiftedTemplatesMatchToo)
{
    GtWorld &w = world();
    Reference ref(w.data);
    Executor exec(*w.db);
    Rng rng(31337);
    for (int t = 0; t < nobench::kNumTemplates; ++t) {
        Query q = w.qs->instantiateShifted(t, rng);
        EXPECT_TRUE(exec.run(q).equals(ref.run(q))) << q.name;
    }
}

} // namespace
} // namespace dvp::engine

/**
 * @file
 * Tests for the adaptive engine (src/adaptive) and the change detector
 * (src/stats): repartition triggering, atomic swaps, catch-up inserts,
 * and result consistency across layout changes.
 */

#include <gtest/gtest.h>

#include "adaptive/adaptive_engine.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "stats/change_detector.hh"
#include "stats/workload_stats.hh"

namespace dvp::adaptive
{
namespace
{

using engine::Query;
using engine::ResultSet;

// ---------------------------------------------------------------------
// WorkloadStats.
// ---------------------------------------------------------------------

TEST(WorkloadStats, AccumulatesPerTemplate)
{
    stats::WorkloadStats ws;
    Query q;
    q.name = "Q1";
    ws.record(q, 0.010, 5, 100);
    ws.record(q, 0.020, 15, 100);
    ASSERT_EQ(ws.templates().count("Q1"), 1u);
    const auto &t = ws.templates().at("Q1");
    EXPECT_EQ(t.executions, 2u);
    EXPECT_NEAR(t.meanSeconds(), 0.015, 1e-9);
    EXPECT_NEAR(t.meanSelectivity(), 0.10, 1e-9);
    EXPECT_EQ(ws.executions(), 2u);
}

TEST(WorkloadStats, RepresentativesCarryObservedStats)
{
    stats::WorkloadStats ws;
    Query a, b;
    a.name = "A";
    b.name = "B";
    for (int i = 0; i < 3; ++i)
        ws.record(a, 0.001, 1, 100);
    ws.record(b, 0.001, 50, 100);
    auto reps = ws.representatives();
    ASSERT_EQ(reps.size(), 2u);
    for (const auto &q : reps) {
        if (q.name == "A") {
            EXPECT_NEAR(q.frequency, 0.75, 1e-9);
            EXPECT_NEAR(q.selectivity, 0.01, 1e-9);
        } else {
            EXPECT_NEAR(q.frequency, 0.25, 1e-9);
            EXPECT_NEAR(q.selectivity, 0.5, 1e-9);
        }
    }
}

TEST(WorkloadStats, ResetForgets)
{
    stats::WorkloadStats ws;
    Query q;
    q.name = "Q";
    ws.record(q, 0.1, 1, 1);
    ws.reset();
    EXPECT_EQ(ws.executions(), 0u);
    EXPECT_TRUE(ws.representatives().empty());
}

// ---------------------------------------------------------------------
// ChangeDetector.
// ---------------------------------------------------------------------

Query
projQuery(const std::string &name, std::vector<storage::AttrId> attrs)
{
    Query q;
    q.name = name;
    q.kind = engine::QueryKind::Project;
    q.projected = std::move(attrs);
    return q;
}

TEST(ChangeDetector, StableWorkloadStaysQuiet)
{
    stats::ChangeDetector det(10, 0.5);
    Query q = projQuery("Q", {1, 2});
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(det.observe(q));
    EXPECT_EQ(det.windowsCompleted(), 10u);
}

TEST(ChangeDetector, AttributeShiftFires)
{
    stats::ChangeDetector det(10, 0.5);
    Query before = projQuery("Q", {1, 2});
    Query after = projQuery("Q", {8, 9});
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(det.observe(before));
    bool fired = false;
    for (int i = 0; i < 10; ++i)
        fired |= det.observe(after);
    EXPECT_TRUE(fired);
}

TEST(ChangeDetector, PartialShiftBelowThresholdIgnored)
{
    stats::ChangeDetector det(10, 1.5); // very tolerant
    Query before = projQuery("Q", {1, 2});
    Query after = projQuery("Q", {1, 3}); // half the mass moved
    for (int i = 0; i < 20; ++i)
        det.observe(before);
    bool fired = false;
    for (int i = 0; i < 10; ++i)
        fired |= det.observe(after);
    EXPECT_FALSE(fired);
}

TEST(ChangeDetector, FirstWindowNeverFires)
{
    stats::ChangeDetector det(5, 0.01);
    Query q = projQuery("Q", {1});
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(det.observe(q));
}

// ---------------------------------------------------------------------
// AdaptiveEngine.
// ---------------------------------------------------------------------

struct AdaptiveWorld
{
    nobench::Config cfg;
    engine::DataSet data;
    std::unique_ptr<nobench::QuerySet> qs;

    explicit AdaptiveWorld(uint64_t docs = 1500)
    {
        cfg.numDocs = docs;
        cfg.seed = 99;
        data = nobench::generateDataSet(cfg);
        qs = std::make_unique<nobench::QuerySet>(data, cfg);
    }

    std::vector<Query>
    initialWorkload()
    {
        Rng rng(1);
        return nobench::representatives(*qs, nobench::Mix::uniform(),
                                        rng);
    }
};

TEST(AdaptiveEngine, BuildsDvpLayoutUpFront)
{
    AdaptiveWorld w;
    Params prm;
    prm.background = false;
    AdaptiveEngine eng(w.data, w.initialWorkload(), prm);
    auto db = eng.snapshot();
    // Table-IV-like shape from the start.
    EXPECT_GE(db->tableCount(), 90u);
    EXPECT_LE(db->tableCount(), 130u);
    EXPECT_GT(eng.adaptation().lastPartitionerSeconds, 0.0);
}

TEST(AdaptiveEngine, ExecutesQueriesAndRecordsStats)
{
    AdaptiveWorld w;
    Params prm;
    prm.background = false;
    AdaptiveEngine eng(w.data, w.initialWorkload(), prm);
    Rng rng(2);
    for (int i = 0; i < 30; ++i) {
        Query q = w.qs->instantiate(i % nobench::kNumTemplates, rng);
        eng.execute(q);
    }
    EXPECT_EQ(eng.workloadStats().executions(), 30u);
}

TEST(AdaptiveEngine, SynchronousRepartitionOnWorkloadChange)
{
    AdaptiveWorld w;
    Params prm;
    prm.background = false;
    prm.window = 40;
    prm.changeThreshold = 0.4;
    AdaptiveEngine eng(w.data, w.initialWorkload(), prm);

    Rng rng(3);
    // Steady phase.
    for (int i = 0; i < 80; ++i)
        eng.execute(w.qs->instantiate(i % nobench::kNumTemplates, rng));
    EXPECT_EQ(eng.adaptation().repartitions, 0u);

    // Shifted phase: different attributes.
    for (int i = 0; i < 120; ++i)
        eng.execute(
            w.qs->instantiateShifted(i % nobench::kNumTemplates, rng));
    EXPECT_GE(eng.adaptation().changesDetected, 1u);
    EXPECT_GE(eng.adaptation().repartitions, 1u);
    EXPECT_GT(eng.adaptation().lastRepartitionSeconds, 0.0);

    // Post-repartition results must still be correct: compare one
    // query against a fresh row-layout engine.
    Query probe = w.qs->instantiate(nobench::kQ6, rng);
    ResultSet got = eng.execute(probe);
    engine::Database row(
        w.data, layout::Layout::rowBased(w.data.catalog.allAttrs()),
        "row");
    engine::Executor ref(row);
    EXPECT_TRUE(got.equals(ref.run(probe)));
}

TEST(AdaptiveEngine, AdaptMasterSwitchOff)
{
    AdaptiveWorld w;
    Params prm;
    prm.background = false;
    prm.adapt = false;
    prm.window = 20;
    prm.changeThreshold = 0.1;
    AdaptiveEngine eng(w.data, w.initialWorkload(), prm);
    Rng rng(4);
    for (int i = 0; i < 60; ++i)
        eng.execute(
            w.qs->instantiateShifted(i % nobench::kNumTemplates, rng));
    EXPECT_EQ(eng.adaptation().repartitions, 0u);
}

TEST(AdaptiveEngine, IngestVisibleImmediately)
{
    AdaptiveWorld w(300);
    Params prm;
    prm.background = false;
    AdaptiveEngine eng(w.data, w.initialWorkload(), prm);

    Rng rng(5);
    json::JsonValue doc =
        nobench::generateDoc(w.cfg, rng,
                             static_cast<int64_t>(w.data.docs.size()));
    int64_t oid = eng.ingest({json::flatten(doc)}).lastOid;

    Query q;
    q.kind = engine::QueryKind::Select;
    q.projected = {w.data.catalog.find("num")};
    q.cond.op = engine::CondOp::Eq;
    q.cond.attr = w.data.catalog.find("id");
    q.cond.lo = oid;
    ResultSet rs = eng.execute(q);
    ASSERT_EQ(rs.rowCount(), 1u);
    EXPECT_EQ(rs.oids[0], oid);
}

TEST(AdaptiveEngine, BackgroundRepartitionSwapsAtomically)
{
    AdaptiveWorld w;
    Params prm;
    prm.background = true;
    prm.window = 30;
    prm.changeThreshold = 0.4;
    AdaptiveEngine eng(w.data, w.initialWorkload(), prm);

    Rng rng(6);
    for (int i = 0; i < 60; ++i)
        eng.execute(w.qs->instantiate(i % nobench::kNumTemplates, rng));

    auto before = eng.snapshot();
    // Shift the workload; keep executing while the worker rebuilds.
    ResultSet last_ref, last_got;
    for (int i = 0; i < 120; ++i) {
        Query q =
            w.qs->instantiateShifted(i % nobench::kNumTemplates, rng);
        eng.execute(q);
    }
    eng.quiesce();
    EXPECT_GE(eng.adaptation().repartitions, 1u);

    // The old snapshot must still be usable (shared ownership), and
    // the new database must return correct results.
    EXPECT_GE(before->tableCount(), 1u);
    Query probe = w.qs->instantiateShifted(nobench::kQ3, rng);
    ResultSet got = eng.execute(probe);
    engine::Database row(
        w.data, layout::Layout::rowBased(w.data.catalog.allAttrs()),
        "row");
    engine::Executor ref(row);
    EXPECT_TRUE(got.equals(ref.run(probe)));
}

TEST(AdaptiveEngine, IngestDuringBackgroundRepartitionIsCaughtUp)
{
    AdaptiveWorld w(800);
    Params prm;
    prm.background = true;
    prm.window = 20;
    prm.changeThreshold = 0.3;
    AdaptiveEngine eng(w.data, w.initialWorkload(), prm);

    Rng rng(7);
    for (int i = 0; i < 40; ++i)
        eng.execute(w.qs->instantiate(i % nobench::kNumTemplates, rng));
    // Trigger a change, then immediately ingest while the background
    // worker may be rebuilding.
    std::vector<int64_t> new_oids;
    for (int i = 0; i < 40; ++i) {
        eng.execute(
            w.qs->instantiateShifted(i % nobench::kNumTemplates, rng));
        json::JsonValue doc = nobench::generateDoc(
            w.cfg, rng, static_cast<int64_t>(w.data.docs.size()));
        new_oids.push_back(eng.ingest({json::flatten(doc)}).lastOid);
    }
    eng.quiesce();

    // Every ingested document must be present afterwards.
    auto db = eng.snapshot();
    EXPECT_EQ(db->docCount(), w.data.docs.size());
    storage::AttrId id_attr = w.data.catalog.find("id");
    for (int64_t oid : new_oids) {
        engine::AttrLoc loc = db->locate(id_attr);
        ASSERT_GE(loc.table, 0);
        EXPECT_NE(db->table(loc.table).rowOf(oid), storage::kNoRow)
            << "oid " << oid;
    }
}

} // namespace
} // namespace dvp::adaptive

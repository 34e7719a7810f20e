/**
 * @file
 * Tests for request-scoped observability: QueryStats collection
 * (EXPLAIN ANALYZE), its exact reconciliation with the exported
 * Prometheus counters, work-counter determinism across thread counts
 * and plain/compressed storage, plan-source provenance, the SQL
 * EXPLAIN ANALYZE rendering, and the wire TLV extension round-trip.
 */

#include <gtest/gtest.h>

#include "adaptive/adaptive_engine.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/plan.hh"
#include "engine/plan_cache.hh"
#include "engine/query_stats.hh"
#include "net/wire.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "obs/metrics.hh"
#include "sql/run.hh"

namespace dvp::engine
{
namespace
{

/** Shared NoBench world with a plain and a compressed database. */
class AnalyzeWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // Past 2x kZoneRows so the compressed twin seals real blocks
        // (compressed predicate evaluation needs full 2048-row seals).
        cfg.numDocs = 4608;
        cfg.seed = 6021;
        data = new DataSet(nobench::generateDataSet(cfg));
        qs = new nobench::QuerySet(*data, cfg);
        auto attrs = data->catalog.allAttrs();
        plain = new Database(*data, layout::Layout::fixedSize(attrs, 12),
                             "fixedSize");
        compressed = new Database(
            *data, layout::Layout::fixedSize(attrs, 12), "fixedSizeC",
            nullptr, /*compress=*/true);
    }
    static void
    TearDownTestSuite()
    {
        delete compressed;
        delete plain;
        delete qs;
        delete data;
        compressed = plain = nullptr;
        qs = nullptr;
        data = nullptr;
    }

    /** One fixed-literal instance of each executable template. */
    static std::vector<Query>
    templates()
    {
        Rng rng(17);
        std::vector<Query> qv;
        for (int i = 0; i < nobench::kNumTemplates; ++i)
            qv.push_back(qs->instantiate(i, rng));
        return qv;
    }

    static nobench::Config cfg;
    static DataSet *data;
    static nobench::QuerySet *qs;
    static Database *plain, *compressed;
};

nobench::Config AnalyzeWorld::cfg;
DataSet *AnalyzeWorld::data = nullptr;
nobench::QuerySet *AnalyzeWorld::qs = nullptr;
Database *AnalyzeWorld::plain = nullptr;
Database *AnalyzeWorld::compressed = nullptr;

// ---------------------------------------------------------------------
// Stats collection and counter reconciliation.
// ---------------------------------------------------------------------

TEST_F(AnalyzeWorld, StatsFilledAndReconcileWithCounters)
{
    Executor exec(*plain, /*threads=*/2);
    exec.setMorselRows(256);
    auto &reg = obs::Registry::global();
    const std::string layout = plain->name();

    for (const Query &q : templates()) {
        SCOPED_TRACE(q.name);
        uint64_t rows0 =
            reg.counter("dvp_rows_scanned_total{layout=\"" + layout +
                        "\"}")
                .value();
        uint64_t touch0 =
            reg.counter("dvp_partition_touches_total{layout=\"" +
                        layout + "\"}")
                .value();
        uint64_t morsels0 = reg.counter("dvp_morsels_total").value();
        uint64_t bscan0 =
            reg.counter("dvp_blocks_scanned_total").value();
        uint64_t bskip0 =
            reg.counter("dvp_blocks_skipped_total").value();
        uint64_t queries0 = reg.counter("dvp_queries_total").value();

        QueryStats s;
        ResultSet rs = exec.run(q, &s);

        // The stats describe exactly this execution.
        EXPECT_EQ(s.rowsOut, rs.rowCount());
        EXPECT_EQ(s.threads, 2u);
        EXPECT_EQ(s.planEpoch, plain->epoch());
        EXPECT_EQ(s.layoutFingerprint, plain->layoutFingerprint());
        EXPECT_GT(s.execNs, 0u);

        // ...and reconcile exactly with the Prometheus counter deltas:
        // both views are filled from the same merged lane counters.
        EXPECT_EQ(reg.counter("dvp_rows_scanned_total{layout=\"" +
                              layout + "\"}")
                          .value() -
                      rows0,
                  s.rowsScanned);
        EXPECT_EQ(reg.counter("dvp_partition_touches_total{layout=\"" +
                              layout + "\"}")
                          .value() -
                      touch0,
                  s.partitionTouches);
        EXPECT_EQ(reg.counter("dvp_morsels_total").value() - morsels0,
                  s.morsels);
        EXPECT_EQ(reg.counter("dvp_blocks_scanned_total").value() -
                      bscan0,
                  s.blocksScanned);
        EXPECT_EQ(reg.counter("dvp_blocks_skipped_total").value() -
                      bskip0,
                  s.blocksSkipped);
        EXPECT_EQ(reg.counter("dvp_queries_total").value() - queries0,
                  1u);
    }
}

TEST_F(AnalyzeWorld, SummaryHasFixedKeyOrder)
{
    Executor exec(*plain);
    QueryStats s;
    exec.run(templates()[0], &s);
    auto kv = s.summary();
    ASSERT_GE(kv.size(), 5u);
    EXPECT_EQ(kv[0].first, "exec_ns");
    EXPECT_EQ(kv[1].first, "plan_ns");
    // Fixed order lets decoded summaries diff cleanly across requests.
    std::vector<std::string> keys;
    for (const auto &[k, v] : kv)
        keys.push_back(k);
    auto at = [&](const std::string &k) {
        for (size_t i = 0; i < kv.size(); ++i)
            if (kv[i].first == k)
                return kv[i].second;
        ADD_FAILURE() << "missing summary key " << k;
        return uint64_t{0};
    };
    EXPECT_EQ(at("rows_out"), s.rowsOut);
    EXPECT_EQ(at("rows_scanned"), s.rowsScanned);
    EXPECT_EQ(at("threads"), s.threads);
    EXPECT_EQ(at("plan_source"),
              static_cast<uint64_t>(s.planSource));
}

// ---------------------------------------------------------------------
// Determinism: work counters identical at every thread count, on both
// plain and compressed storage; results digest-identical.
// ---------------------------------------------------------------------

TEST_F(AnalyzeWorld, WorkCountersDeterministicAcrossThreads)
{
    for (Database *db : {plain, compressed}) {
        for (const Query &q : templates()) {
            SCOPED_TRACE(db->name() + " / " + q.name);

            Executor serial(*db, 1);
            QueryStats base;
            ResultSet rs0 = serial.run(q, &base);

            for (size_t threads : {2u, 4u, 8u}) {
                Executor par(*db, threads);
                QueryStats s;
                ResultSet rs = par.run(q, &s);

                // Bit-identical results...
                EXPECT_EQ(rs.digest(), rs0.digest());
                EXPECT_EQ(rs.checksum, rs0.checksum);

                // ...and identical work counters (the morsel count and
                // wall times are per-run measurements, not checked).
                EXPECT_EQ(s.rowsScanned, base.rowsScanned);
                EXPECT_EQ(s.partitionTouches, base.partitionTouches);
                EXPECT_EQ(s.blocksScanned, base.blocksScanned);
                EXPECT_EQ(s.blocksSkipped, base.blocksSkipped);
                EXPECT_EQ(s.matches, base.matches);
                EXPECT_EQ(s.rowsOut, base.rowsOut);
                for (size_t i = 0; i < 4; ++i)
                    EXPECT_EQ(s.compressedEval[i],
                              base.compressedEval[i]);
                EXPECT_EQ(s.threads, threads);
            }
        }
    }
}

TEST_F(AnalyzeWorld, CompressedDatabaseReportsCompressedEval)
{
    // On the compressed database at least one template answers
    // predicates on the compressed form; on the plain one, none do.
    Executor cexec(*compressed, 1);
    Executor pexec(*plain, 1);
    uint64_t compressed_total = 0, plain_total = 0;
    for (const Query &q : templates()) {
        QueryStats cs, ps;
        cexec.run(q, &cs);
        pexec.run(q, &ps);
        compressed_total += cs.compressedEvalTotal();
        plain_total += ps.compressedEvalTotal();
    }
    EXPECT_GT(compressed_total, 0u);
    EXPECT_EQ(plain_total, 0u);
}

// ---------------------------------------------------------------------
// Plan provenance.
// ---------------------------------------------------------------------

TEST_F(AnalyzeWorld, PlanSourceProvenance)
{
    Query q = templates()[0];

    // No cache attached: every run binds a private plan.
    Executor adhoc(*plain);
    QueryStats s;
    adhoc.run(q, &s);
    EXPECT_EQ(s.planSource, PlanSource::AdHoc);
    EXPECT_STREQ(planSourceName(s.planSource), "adhoc");

    // With a cache: first execution misses, repeats hit.
    PlanCache cache;
    Executor cached(*plain);
    cached.setPlanCache(&cache);
    cached.run(q, &s);
    EXPECT_EQ(s.planSource, PlanSource::CacheMiss);
    EXPECT_STREQ(planSourceName(s.planSource), "miss");
    cached.run(q, &s);
    EXPECT_EQ(s.planSource, PlanSource::CacheHit);
    EXPECT_STREQ(planSourceName(s.planSource), "hit");
}

// ---------------------------------------------------------------------
// SQL surface: EXPLAIN ANALYZE through runStatement.
// ---------------------------------------------------------------------

TEST(AnalyzeSql, ExplainAnalyzeRendersExecutionSection)
{
    nobench::Config cfg;
    cfg.numDocs = 400;
    cfg.seed = 31;
    DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    Rng wrng(1);
    auto initial =
        nobench::representatives(qs, nobench::Mix::uniform(), wrng);
    adaptive::Params prm;
    prm.background = false;
    prm.adapt = false;
    adaptive::AdaptiveEngine eng(data, initial, prm);

    // Plain EXPLAIN: no execution, no stats.
    sql::RunResult plain = sql::runStatement(
        eng, "EXPLAIN SELECT str1, num FROM nobench_main");
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_FALSE(plain.hasStats);
    EXPECT_EQ(plain.message.find("execution:"), std::string::npos);

    // EXPLAIN ANALYZE: really executes, renders the measured run.
    sql::RunResult an = sql::runStatement(
        eng, "EXPLAIN ANALYZE SELECT str1, num FROM nobench_main");
    ASSERT_TRUE(an.ok) << an.error;
    EXPECT_TRUE(an.hasStats);
    EXPECT_NE(an.message.find("plan:"), std::string::npos);
    EXPECT_NE(an.message.find("execution:"), std::string::npos);
    EXPECT_NE(an.message.find("rows out"), std::string::npos);
    EXPECT_NE(an.message.find("result:"), std::string::npos);
    EXPECT_GT(an.stats.rowsOut, 0u);

    // A regular SELECT also carries stats (for the wire summary).
    sql::RunResult sel = sql::runStatement(
        eng, "SELECT str1, num FROM nobench_main");
    ASSERT_TRUE(sel.ok) << sel.error;
    EXPECT_TRUE(sel.hasStats);
    EXPECT_EQ(sel.stats.rowsOut, sel.rows.rowCount());
    // The ANALYZE run and the real run did the same work.
    EXPECT_EQ(an.stats.rowsScanned, sel.stats.rowsScanned);
    EXPECT_EQ(an.stats.rowsOut, sel.stats.rowsOut);
}

// ---------------------------------------------------------------------
// Adaptive audit ring.
// ---------------------------------------------------------------------

TEST(AnalyzeAudit, InitialDecisionAndRepartitionAreAudited)
{
    nobench::Config cfg;
    cfg.numDocs = 800;
    cfg.seed = 99;
    DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    Rng wrng(1);
    auto initial =
        nobench::representatives(qs, nobench::Mix::uniform(), wrng);

    adaptive::Params prm;
    prm.background = false;
    prm.window = 40;
    prm.changeThreshold = 0.4;
    adaptive::AdaptiveEngine eng(data, initial, prm);

    // Construction records the initial partitioning decision.
    auto trail = eng.auditTrail();
    ASSERT_EQ(trail.size(), 1u);
    EXPECT_EQ(trail[0].trigger, "initial");
    EXPECT_GT(trail[0].tables, 0u);
    EXPECT_EQ(trail[0].layoutFingerprint,
              eng.snapshot()->layoutFingerprint());
    EXPECT_GT(trail[0].buildNs, 0u);

    // Drive a workload shift until a repartition fires.
    Rng rng(7);
    for (int i = 0; i < 80; ++i)
        eng.execute(qs.instantiate(i % nobench::kNumTemplates, rng));
    for (int i = 0; i < 120; ++i)
        eng.execute(
            qs.instantiateShifted(i % nobench::kNumTemplates, rng));
    ASSERT_GE(eng.adaptation().repartitions, 1u);

    trail = eng.auditTrail();
    ASSERT_GE(trail.size(), 2u);
    const auto &last = trail.back();
    EXPECT_NE(last.trigger, "initial");
    EXPECT_FALSE(last.trigger.empty());
    EXPECT_GT(last.seq, trail.front().seq);
    EXPECT_EQ(last.layoutFingerprint,
              eng.snapshot()->layoutFingerprint());
    EXPECT_GT(last.swapNs, 0u);
    EXPECT_GT(last.buildNs, 0u);
}

// ---------------------------------------------------------------------
// Wire TLV extensions.
// ---------------------------------------------------------------------

TEST(AnalyzeWire, QueryTraceIdRoundTrips)
{
    net::QueryBody q;
    q.sql = "SELECT num FROM t";
    q.hasTraceId = true;
    q.traceId = 0xdeadbeefcafe1234ull;

    std::string enc = net::encodeQuery(q);
    net::QueryBody out;
    ASSERT_TRUE(net::decodeQuery(enc, out));
    EXPECT_EQ(out.sql, q.sql);
    EXPECT_TRUE(out.hasTraceId);
    EXPECT_EQ(out.traceId, q.traceId);
}

TEST(AnalyzeWire, ResultExtrasRoundTrip)
{
    net::ResultBody r;
    r.kind = net::ResultBody::Kind::Message;
    r.message = "ok";
    r.execNs = 12345;
    r.hasTraceId = true;
    r.traceId = 7;
    r.opStats = {{"rows_scanned", 800}, {"rows_out", 12}};

    std::string enc2 =
        net::ResultWriter(r, 0).finish(0).substr(net::kHeaderBytes);
    net::ResultBody out2;
    net::DecodedRows rows;
    ASSERT_TRUE(net::decodeResult(enc2, out2, rows));
    EXPECT_TRUE(out2.hasTraceId);
    EXPECT_EQ(out2.traceId, 7u);
    ASSERT_EQ(out2.opStats.size(), 2u);
    EXPECT_EQ(out2.opStats[0].first, "rows_scanned");
    EXPECT_EQ(out2.opStats[0].second, 800u);
    EXPECT_EQ(out2.execNs, 12345u);
}

TEST(AnalyzeWire, UnknownTlvTagsAreSkipped)
{
    // Forward compatibility: a newer peer may append tags we do not
    // know; decoders must skip them and keep what they understand.
    net::QueryBody q;
    q.sql = "SELECT num FROM t";
    q.hasTraceId = true;
    q.traceId = 99;
    std::string enc = net::encodeQuery(q);

    // Append an unknown TLV by hand: u8 tag + u32 length + payload.
    std::string extra;
    extra.push_back(static_cast<char>(0x7f)); // unknown tag
    extra.push_back(3);                       // u32 length, LE
    extra.push_back(0);
    extra.push_back(0);
    extra.push_back(0);
    extra += "xyz";
    enc += extra;

    net::QueryBody out;
    ASSERT_TRUE(net::decodeQuery(enc, out));
    EXPECT_EQ(out.sql, q.sql);
    EXPECT_TRUE(out.hasTraceId);
    EXPECT_EQ(out.traceId, 99u);
}

} // namespace
} // namespace dvp::engine

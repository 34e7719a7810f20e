/**
 * @file
 * Tests for the physical-plan layer (src/engine/plan*): binding,
 * template signatures, the epoch-keyed plan cache, executor integration
 * (cached execution bit-identical to cold across layouts and thread
 * counts, simulated counters unchanged), swap invalidation through the
 * adaptive engine, and EXPLAIN provenance.
 */

#include <gtest/gtest.h>

#include "adaptive/adaptive_engine.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/plan.hh"
#include "engine/plan_cache.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "perf/memory_hierarchy.hh"
#include "sql/explain.hh"

namespace dvp::engine
{
namespace
{

/**
 * Plan-cache lookups since construction, read from the registry
 * counters every PlanCache::bind increments.  Tests run one at a time
 * in this binary, so the deltas are exact.
 */
class CacheCounts
{
  public:
    CacheCounts()
        : h0(hits_()), m0(misses_()), i0(invalidations_())
    {
    }

    uint64_t hits() const { return hits_() - h0; }
    uint64_t misses() const { return misses_() - m0; }
    uint64_t invalidations() const { return invalidations_() - i0; }

  private:
    static uint64_t
    read(const char *name)
    {
        return obs::Registry::global().counter(name).value();
    }
    static uint64_t hits_() { return read("dvp_plan_cache_hits_total"); }
    static uint64_t
    misses_()
    {
        return read("dvp_plan_cache_misses_total");
    }
    static uint64_t
    invalidations_()
    {
        return read("dvp_plan_cache_invalidations_total");
    }

    uint64_t h0, m0, i0;
};

/** Shared NoBench world with one database per layout family. */
class PlanWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cfg.numDocs = 800;
        cfg.seed = 6021;
        data = new DataSet(nobench::generateDataSet(cfg));
        qs = new nobench::QuerySet(*data, cfg);
        auto attrs = data->catalog.allAttrs();
        row = new Database(*data, layout::Layout::rowBased(attrs),
                           "row");
        column = new Database(*data,
                              layout::Layout::columnBased(attrs),
                              "column");
        fixed = new Database(
            *data, layout::Layout::fixedSize(attrs, 12), "fixedSize");
    }
    static void
    TearDownTestSuite()
    {
        delete fixed;
        delete column;
        delete row;
        delete qs;
        delete data;
        fixed = column = row = nullptr;
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
    static Database *row, *column, *fixed;
};

nobench::Config PlanWorld::cfg;
DataSet *PlanWorld::data = nullptr;
nobench::QuerySet *PlanWorld::qs = nullptr;
Database *PlanWorld::row = nullptr;
Database *PlanWorld::column = nullptr;
Database *PlanWorld::fixed = nullptr;

// ---------------------------------------------------------------------
// Binding.
// ---------------------------------------------------------------------

TEST_F(PlanWorld, BindStampsEveryPlan)
{
    for (const Query &q : templates()) {
        SCOPED_TRACE(q.name);
        PhysicalPlan p = bindPlan(*fixed, q);
        EXPECT_EQ(p.kind, q.kind);
        EXPECT_EQ(p.templateName, q.name);
        EXPECT_EQ(p.epoch, fixed->epoch());
        EXPECT_EQ(p.layoutFingerprint, fixed->layoutFingerprint());
        EXPECT_EQ(p.catalogWidth, data->catalog.attrCount());
        EXPECT_EQ(p.signature, planSignature(q));
        EXPECT_EQ(p.key, templateKey(q));
    }
}

TEST_F(PlanWorld, SignatureIgnoresLiteralsButNotShape)
{
    Rng a(1), b(2);
    // Two instances of one template (different keys/ranges) collide.
    EXPECT_EQ(planSignature(qs->instantiate(nobench::kQ5, a)),
              planSignature(qs->instantiate(nobench::kQ5, b)));
    EXPECT_EQ(planSignature(qs->instantiate(nobench::kQ6, a)),
              planSignature(qs->instantiate(nobench::kQ6, b)));
    EXPECT_EQ(templateKey(qs->instantiate(nobench::kQ6, a)),
              templateKey(qs->instantiate(nobench::kQ6, b)));

    // Distinct templates never collide on the canonical key.
    std::vector<Query> qv = templates();
    for (size_t i = 0; i < qv.size(); ++i)
        for (size_t j = i + 1; j < qv.size(); ++j)
            EXPECT_NE(templateKey(qv[i]), templateKey(qv[j]))
                << qv[i].name << " vs " << qv[j].name;
}

TEST_F(PlanWorld, BindResolvesAgainstTheLayout)
{
    Rng rng(3);
    Query q6 = qs->instantiate(nobench::kQ6, rng);

    PhysicalPlan pc = bindPlan(*column, q6);
    ASSERT_EQ(pc.filter.mode, FilterMode::ColumnPredicate);
    EXPECT_GE(pc.filter.table, 0);
    EXPECT_EQ(pc.filter.col, 0); // column store: one attr per table

    // Same template, different layout: different physical locations.
    PhysicalPlan pr = bindPlan(*row, q6);
    ASSERT_EQ(pr.filter.mode, FilterMode::ColumnPredicate);
    EXPECT_EQ(pr.filter.table, 0); // row store: everything in table 0

    // A condition on a column no layout materializes binds to Empty.
    Query ghost = q6;
    ghost.cond.attr = storage::kNoAttr;
    EXPECT_EQ(bindPlan(*fixed, ghost).filter.mode, FilterMode::Empty);
}

// ---------------------------------------------------------------------
// PlanCache.
// ---------------------------------------------------------------------

TEST_F(PlanWorld, CacheHitsAfterFirstExecution)
{
    PlanCache cache;
    CacheCounts counts;
    Executor exec(*fixed);
    exec.setPlanCache(&cache);

    Rng rng(4);
    Query q = qs->instantiate(nobench::kQ6, rng);
    exec.run(q);
    EXPECT_EQ(counts.misses(), 1u);
    EXPECT_EQ(counts.hits(), 0u);

    exec.run(q);
    EXPECT_EQ(counts.hits(), 1u);

    // Another instance of the template reuses the same entry.
    exec.run(qs->instantiate(nobench::kQ6, rng));
    EXPECT_EQ(counts.hits(), 2u);
    EXPECT_EQ(counts.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // A different template cold-binds its own entry.
    exec.run(qs->instantiate(nobench::kQ1, rng));
    EXPECT_EQ(counts.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(PlanWorld, CacheInvalidatesOnEpochChange)
{
    Rng rng(5);
    Query q = qs->instantiate(nobench::kQ6, rng);

    PlanCache cache;
    CacheCounts counts;
    auto attrs = data->catalog.allAttrs();
    Database old_db(*data, layout::Layout::fixedSize(attrs, 12),
                    "fixedSize");
    auto stale = cache.bind(old_db, q);
    EXPECT_EQ(stale->epoch, old_db.epoch());
    EXPECT_EQ(counts.misses(), 1u);

    // A swap installs a new Database => new epoch: the entry is
    // evicted and rebound on its next lookup.
    Database new_db(*data, layout::Layout::fixedSize(attrs, 12),
                    "fixedSize");
    ASSERT_GT(new_db.epoch(), old_db.epoch());
    auto fresh = cache.bind(new_db, q);
    EXPECT_EQ(fresh->epoch, new_db.epoch());
    EXPECT_EQ(counts.invalidations(), 1u);
    EXPECT_EQ(counts.misses(), 2u);
    EXPECT_NE(cache.peek(new_db, q), nullptr);

    // A straggler query still running on the old snapshot binds
    // privately and must NOT clobber the newer entry.
    auto straggler = cache.bind(old_db, q);
    EXPECT_EQ(straggler->epoch, old_db.epoch());
    EXPECT_EQ(cache.bind(new_db, q)->epoch, new_db.epoch());
    EXPECT_EQ(counts.invalidations(), 1u);
}

TEST_F(PlanWorld, CachedExecutionBitIdenticalAcrossLayoutsAndThreads)
{
    std::vector<Query> qv = templates();
    // Reference: cold serial execution on the row layout.
    std::vector<uint64_t> ref;
    {
        Executor cold(*row);
        for (const Query &q : qv)
            ref.push_back(cold.run(q).digest());
    }

    for (Database *db : {row, column, fixed}) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
            PlanCache cache;
            CacheCounts counts;
            Executor exec(*db, threads);
            exec.setMorselRows(64);
            exec.setPlanCache(&cache);
            for (size_t i = 0; i < qv.size(); ++i) {
                SCOPED_TRACE(qv[i].name + " threads=" +
                             std::to_string(threads));
                uint64_t first = exec.run(qv[i]).digest();
                uint64_t cached = exec.run(qv[i]).digest();
                EXPECT_EQ(first, ref[i]);
                EXPECT_EQ(cached, ref[i]);
            }
            EXPECT_EQ(counts.hits(), qv.size());
            EXPECT_EQ(counts.misses(), qv.size());
        }
    }
}

TEST_F(PlanWorld, CachedExecutionLeavesSimCountersUnchanged)
{
    // The simulated access sequence (Figs. 6-7 counters) must be
    // byte-for-byte identical whether the plan was cold-bound or
    // served from the cache.
    for (const Query &q : templates()) {
        SCOPED_TRACE(q.name);
        perf::MemoryHierarchy cold_mh;
        Executor cold(*fixed);
        cold.run(q, cold_mh);

        PlanCache cache;
        CacheCounts counts;
        Executor cached(*fixed);
        cached.setPlanCache(&cache);
        perf::MemoryHierarchy warm_up;
        cached.run(q, warm_up); // cold bind, populates the cache
        perf::MemoryHierarchy cached_mh;
        cached.run(q, cached_mh); // cache hit
        ASSERT_EQ(counts.hits(), 1u);

        perf::PerfCounters a = cold_mh.counters();
        perf::PerfCounters b = cached_mh.counters();
        EXPECT_EQ(a.accesses, b.accesses);
        EXPECT_EQ(a.l1Misses, b.l1Misses);
        EXPECT_EQ(a.l2Misses, b.l2Misses);
        EXPECT_EQ(a.l3Misses, b.l3Misses);
        EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    }
}

// ---------------------------------------------------------------------
// Adaptive swaps.
// ---------------------------------------------------------------------

TEST(PlanAdaptive, SwapInvalidatesPlansAndRetainsKnobs)
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
    prm.threads = 2;
    prm.morselRows = 64;
    adaptive::AdaptiveEngine eng(data, initial, prm);
    CacheCounts counts;
    EXPECT_EQ(eng.threads(), 2u);
    EXPECT_EQ(eng.morselRows(), 64u);

    Rng rng(7);
    // Steady phase: templates repeat, so the cache serves hits.
    for (int i = 0; i < 80; ++i)
        eng.execute(qs.instantiate(i % nobench::kNumTemplates, rng));
    EXPECT_EQ(eng.adaptation().repartitions, 0u);
    EXPECT_GT(counts.hits(), 0u);

    uint64_t epoch_before = eng.snapshot()->epoch();
    uint64_t morsels_before =
        obs::Registry::global().counter("dvp_morsels_total").value();

    // Shifted phase: the synchronous repartition swaps the database.
    for (int i = 0; i < 120; ++i)
        eng.execute(
            qs.instantiateShifted(i % nobench::kNumTemplates, rng));
    ASSERT_GE(eng.adaptation().repartitions, 1u);
    EXPECT_GT(eng.snapshot()->epoch(), epoch_before);

    // Every steady-phase plan went stale at the swap; re-executions
    // evicted them (lazily, template by template).
    EXPECT_GT(counts.invalidations(), 0u);

    // The execution knobs survive the swap: still 2 worker lanes and
    // the configured morsel size, i.e. post-swap queries keep running
    // the parallel path.
    EXPECT_EQ(eng.threads(), 2u);
    EXPECT_EQ(eng.morselRows(), 64u);
    EXPECT_GT(obs::Registry::global()
                  .counter("dvp_morsels_total")
                  .value(),
              morsels_before);

    // And post-swap cached results are still correct.
    Query probe = qs.instantiateShifted(nobench::kQ6, rng);
    ResultSet first = eng.execute(probe);
    ResultSet cached = eng.execute(probe);
    Database ref_db(data,
                    layout::Layout::rowBased(data.catalog.allAttrs()),
                    "row");
    Executor ref(ref_db);
    EXPECT_TRUE(first.equals(ref.run(probe)));
    EXPECT_EQ(cached.digest(), first.digest());
}

// ---------------------------------------------------------------------
// EXPLAIN provenance + exported counters.
// ---------------------------------------------------------------------

TEST_F(PlanWorld, ExplainReportsCacheProvenance)
{
    Rng rng(8);
    Query q = qs->instantiate(nobench::kQ6, rng);

    EXPECT_NE(sql::explain(*fixed, q).find("plan cache: none"),
              std::string::npos);

    PlanCache cache;
    CacheCounts counts;
    EXPECT_NE(sql::explain(*fixed, q, &cache).find("plan cache: MISS"),
              std::string::npos);
    // The probe itself must not perturb the cache.
    EXPECT_EQ(counts.misses(), 0u);
    EXPECT_EQ(cache.size(), 0u);

    Executor exec(*fixed);
    exec.setPlanCache(&cache);
    exec.run(q);
    std::string hit = sql::explain(*fixed, q, &cache);
    EXPECT_NE(hit.find("plan cache: HIT"), std::string::npos);
    EXPECT_NE(hit.find("FilterScan"), std::string::npos);
}

TEST_F(PlanWorld, PlanCacheCountersAreExported)
{
    // Touch all three paths so the counters exist...
    PlanCache cache;
    Rng rng(9);
    Query q = qs->instantiate(nobench::kQ3, rng);
    auto attrs = data->catalog.allAttrs();
    Database a(*data, layout::Layout::rowBased(attrs), "row");
    cache.bind(a, q); // miss
    cache.bind(a, q); // hit
    Database b(*data, layout::Layout::rowBased(attrs), "row");
    cache.bind(b, q); // invalidation + rebind

    // ...then check the Prometheus exposition carries them.
    std::string text = obs::exportPrometheus(obs::Registry::global());
    EXPECT_NE(text.find("dvp_plan_cache_hits_total"),
              std::string::npos);
    EXPECT_NE(text.find("dvp_plan_cache_misses_total"),
              std::string::npos);
    EXPECT_NE(text.find("dvp_plan_cache_invalidations_total"),
              std::string::npos);
    EXPECT_NE(text.find("dvp_plan_binds_total"), std::string::npos);
}

} // namespace
} // namespace dvp::engine

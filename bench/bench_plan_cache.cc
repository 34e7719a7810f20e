/**
 * @file
 * Plan-layer microbench: what binding costs, what the epoch-keyed plan
 * cache saves, and how it behaves under adaptive swaps.
 *
 * Three stages, each emitted as human tables and (--json) NDJSON:
 *  - cold_bind_ns      per-template bindPlan() latency (catalog walk,
 *                      no table reads);
 *  - cold vs cached    end-to-end query latency with every run
 *                      re-binding vs a warmed PlanCache (the cached
 *                      path must not be slower — binding is off the
 *                      hot path entirely);
 *  - adaptive phase    hit ratio and invalidations over a steady
 *                      workload followed by a shifted one that forces
 *                      synchronous repartitions (epoch bumps).
 */

#include "harness.hh"

#include "adaptive/adaptive_engine.hh"
#include "engine/plan.hh"
#include "engine/plan_cache.hh"
#include "obs/metrics.hh"

namespace dvp::bench
{
namespace
{

int
run(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv, /*default_docs=*/20000);
    nobench::Config cfg = opt.nobenchConfig();
    engine::DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    engine::Database db(
        data, layout::Layout::fixedSize(data.catalog.allAttrs(), 12),
        "fixedSize");

    Rng rng(opt.seed + 30);
    std::vector<engine::Query> queries;
    for (int i = 0; i < nobench::kNumTemplates; ++i)
        queries.push_back(qs.instantiate(i, rng));

    JsonLog json(opt, "plan_cache");
    TablePrinter t({"Query", "bind [us]", "cold [ms]", "cached [ms]",
                    "saved"});
    for (const engine::Query &q : queries) {
        // Pure bind cost, amortized over a batch (binds are ~us).
        constexpr int kBinds = 512;
        double bind_s = timeMedian(opt.repeats, [&] {
            for (int i = 0; i < kBinds; ++i) {
                engine::PhysicalPlan p = engine::bindPlan(db, q);
                (void)p;
            }
        });
        double bind_us = bind_s / kBinds * 1e6;

        // End-to-end: ad-hoc re-bind every run vs a warmed cache.
        engine::Executor cold(db, opt.threads);
        double cold_s =
            timeMedian(opt.repeats, [&] { cold.run(q); });

        engine::PlanCache cache;
        engine::Executor cached(db, opt.threads);
        cached.setPlanCache(&cache);
        cached.run(q); // warm: first run cold-binds into the cache
        double cached_s =
            timeMedian(opt.repeats, [&] { cached.run(q); });

        t.addRow({q.name, fmt(bind_us, 2), fmt(cold_s * 1e3, 3),
                  fmt(cached_s * 1e3, 3),
                  fmt((cold_s - cached_s) * 1e6, 1) + " us"});
        json.value("fixedSize", q.name, "cold_bind_ns", bind_s / kBinds * 1e9,
                   "ns");
        json.value("fixedSize", q.name, "cold_execute_ms", cold_s * 1e3,
                   "ms");
        json.value("fixedSize", q.name, "cached_execute_ms",
                   cached_s * 1e3, "ms");
    }
    emit(t,
         "Plan cache: bind cost and cold vs cached execution "
         "(docs=" + std::to_string(opt.docs) +
             ", threads=" + std::to_string(opt.threads) + ")",
         opt.csv);

    // Adaptive phase: a steady workload warms the cache, a shifted one
    // triggers synchronous repartitions whose swaps invalidate it.
    adaptive::Params prm;
    prm.background = false;
    prm.window = 50;
    prm.changeThreshold = 0.4;
    prm.threads = opt.threads;
    Rng wrng(opt.seed + 31);
    adaptive::AdaptiveEngine eng(
        data, nobench::representatives(qs, nobench::Mix::uniform(), wrng),
        prm);

    // Plan-cache counts of this phase: deltas of the registry counters
    // every PlanCache lookup increments.
    struct CacheCounts
    {
        uint64_t hits, misses, invalidations;
    };
    auto cacheCounts = [] {
        auto &reg = obs::Registry::global();
        return CacheCounts{
            reg.counter("dvp_plan_cache_hits_total").value(),
            reg.counter("dvp_plan_cache_misses_total").value(),
            reg.counter("dvp_plan_cache_invalidations_total").value()};
    };
    CacheCounts before = cacheCounts();
    size_t phase = std::max<size_t>(opt.logSize / 2, 100);
    Rng qrng(opt.seed + 32);
    for (size_t i = 0; i < phase; ++i)
        eng.execute(qs.instantiate(
            static_cast<int>(i % nobench::kNumTemplates), qrng));
    for (size_t i = 0; i < phase; ++i)
        eng.execute(qs.instantiateShifted(
            static_cast<int>(i % nobench::kNumTemplates), qrng));

    CacheCounts after = cacheCounts();
    CacheCounts st{after.hits - before.hits, after.misses - before.misses,
                   after.invalidations - before.invalidations};
    double ratio =
        st.hits + st.misses
            ? static_cast<double>(st.hits) /
                  static_cast<double>(st.hits + st.misses)
            : 0.0;
    TablePrinter a({"Adaptive phase", "value"});
    a.addRow({"queries", std::to_string(2 * phase)});
    a.addRow({"repartitions",
              std::to_string(eng.adaptation().repartitions)});
    a.addRow({"cache hits", std::to_string(st.hits)});
    a.addRow({"cache misses", std::to_string(st.misses)});
    a.addRow({"invalidations", std::to_string(st.invalidations)});
    a.addRow({"hit ratio", fmt(ratio, 4)});
    emit(a, "Plan cache under adaptive swaps", opt.csv);
    json.value("adaptive", "workload", "hit_ratio", ratio);
    json.value("adaptive", "workload", "hits",
               static_cast<double>(st.hits));
    json.value("adaptive", "workload", "misses",
               static_cast<double>(st.misses));
    json.value("adaptive", "workload", "invalidations",
               static_cast<double>(st.invalidations));
    json.value("adaptive", "workload", "repartitions",
               static_cast<double>(eng.adaptation().repartitions));
    return 0;
}

} // namespace
} // namespace dvp::bench

int
main(int argc, char **argv)
{
    return dvp::bench::run(argc, argv);
}

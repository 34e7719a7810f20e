/**
 * @file
 * Live workload adaptation: drives the AdaptiveEngine through a
 * workload shift while ingesting new documents, and prints the moving
 * average of query latency around the repartition — an interactive
 * miniature of the paper's Figure 8.
 *
 * Usage: adaptive_analytics [num_docs]       (default 8000)
 *        (--metrics/--trace PATH dump counters and spans at exit)
 */

#include <cstdio>
#include <cstdlib>

#include "adaptive/adaptive_engine.hh"
#include "obs/export.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "util/timer.hh"

using namespace dvp;

int
main(int argc, char **argv)
{
    obs::DumpScope obs_dump = obs::scanArgs(argc, argv);
    uint64_t docs = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                             : 8000;
    nobench::Config cfg;
    cfg.numDocs = docs;
    cfg.seed = 11;
    engine::DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    std::printf("data: %llu documents, %zu attributes\n",
                static_cast<unsigned long long>(docs),
                data.catalog.attrCount());

    Rng rng(12);
    std::vector<engine::Query> initial = nobench::representatives(
        qs, nobench::Mix::uniform(), rng);

    adaptive::Params prm;
    prm.background = false; // deterministic demo output
    prm.window = 120;
    prm.changeThreshold = 0.4;
    adaptive::AdaptiveEngine eng(data, initial, prm);
    std::printf("initial DVP layout: %zu tables (partitioned in %.2f "
                "s)\n\n",
                eng.snapshot()->tableCount(),
                eng.adaptation().lastPartitionerSeconds.load());

    const size_t total = 900, change_at = 450;
    double window_ms = 0;
    size_t window_n = 0;
    Rng qrng(13);
    Rng ingest_rng(14);

    for (size_t i = 0; i < total; ++i) {
        int tmpl = static_cast<int>(qrng.below(nobench::kNumTemplates));
        engine::Query q = i < change_at
                              ? qs.instantiate(tmpl, qrng)
                              : qs.instantiateShifted(tmpl, qrng);
        Timer t;
        eng.execute(q);
        window_ms += t.milliseconds();
        ++window_n;

        // A trickle of live ingest alongside the queries.
        if (i % 60 == 0)
            eng.ingest({json::flatten(nobench::generateDoc(
                cfg, ingest_rng,
                static_cast<int64_t>(data.docs.size())))});

        if ((i + 1) % 75 == 0) {
            std::printf("  q%4zu-%4zu  avg %.3f ms  (repartitions so "
                        "far: %llu)%s\n",
                        i + 1 - window_n + 1, i + 1,
                        window_ms / window_n,
                        static_cast<unsigned long long>(
                            eng.adaptation().repartitions),
                        i + 1 == change_at ? "  <-- workload changes"
                                           : "");
            window_ms = 0;
            window_n = 0;
        }
    }

    eng.quiesce();
    const adaptive::AdaptationStats &st = eng.adaptation();
    std::printf("\nchanges detected: %llu, repartitions: %llu\n",
                static_cast<unsigned long long>(st.changesDetected),
                static_cast<unsigned long long>(st.repartitions));
    std::printf("last repartition: %.2f s total (%.2f s partitioner), "
                "layout now %zu tables over %zu documents\n",
                st.lastRepartitionSeconds.load(),
                st.lastPartitionerSeconds.load(),
                st.lastLayoutTables.load(), eng.snapshot()->docCount());
    return 0;
}

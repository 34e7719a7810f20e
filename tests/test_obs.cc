/**
 * @file
 * Tests for the observability layer (src/obs): histogram bucket math
 * and quantile accuracy against an exact reference, concurrent counter
 * merge determinism, span ring overflow and parent/child nesting,
 * exporter goldens, byte-identical Prometheus dumps for fixed-seed
 * serial runs, and span/AdaptationStats agreement on the adaptive
 * engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "obs/export.hh"

namespace dvp::obs
{

namespace
{

// ---------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------

TEST(Histogram, BucketMath)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 64u);

    EXPECT_EQ(Histogram::bucketBound(0), 0u);
    EXPECT_EQ(Histogram::bucketBound(1), 1u);
    EXPECT_EQ(Histogram::bucketBound(2), 3u);
    EXPECT_EQ(Histogram::bucketBound(10), 1023u);
    EXPECT_EQ(Histogram::bucketBound(64), UINT64_MAX);

    // Every sample lands in the bucket whose range contains it.
    for (uint64_t s : {1ull, 2ull, 3ull, 63ull, 64ull, 12345ull}) {
        size_t b = Histogram::bucketOf(s);
        EXPECT_LE(s, Histogram::bucketBound(b));
        EXPECT_GT(s, Histogram::bucketBound(b - 1));
    }
}

TEST(Histogram, QuantilesWithinTwoXOfExactReference)
{
    Histogram h;
    std::vector<uint64_t> samples;
    uint64_t x = 88172645463325252ull; // xorshift64
    for (int i = 0; i < 4000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        samples.push_back(x % 1000000 + 1);
        h.observe(samples.back());
    }
    std::vector<uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());

    for (double q : {0.50, 0.90, 0.95, 0.99}) {
        uint64_t exact =
            sorted[static_cast<size_t>(q * sorted.size())];
        uint64_t approx = h.quantile(q);
        // The log2 bucket bound brackets the order statistic within 2x.
        EXPECT_GE(approx, exact) << "q=" << q;
        EXPECT_LT(approx, 2 * exact) << "q=" << q;
    }
    EXPECT_EQ(h.quantile(1.0), sorted.back());
    EXPECT_EQ(h.maxValue(), sorted.back());
    EXPECT_EQ(h.count(), samples.size());

    Histogram empty;
    EXPECT_EQ(empty.quantile(0.5), 0u);
}

// ---------------------------------------------------------------------
// Concurrent updates.
// ---------------------------------------------------------------------

TEST(Counter, ConcurrentAddsMergeDeterministically)
{
    for (size_t nthreads : {1u, 2u, 4u, 8u}) {
        Registry reg;
        Counter &c = reg.counter("t_total");
        Histogram &h = reg.histogram("t_hist");
        const uint64_t per_thread = 40000 / nthreads;
        std::vector<std::thread> threads;
        for (size_t t = 0; t < nthreads; ++t) {
            threads.emplace_back([&, t] {
                for (uint64_t i = 0; i < per_thread; ++i) {
                    c.add(t + 1);
                    h.observe(i % 1024);
                }
            });
        }
        for (auto &th : threads)
            th.join();
        uint64_t expected = 0;
        for (size_t t = 0; t < nthreads; ++t)
            expected += (t + 1) * per_thread;
        EXPECT_EQ(c.value(), expected) << nthreads << " threads";
        EXPECT_EQ(h.count(), per_thread * nthreads);
    }
}

TEST(Registry, HandlesStableAcrossReset)
{
    Registry reg;
    Counter &a = reg.counter("x_total");
    a.add(5);
    Gauge &g = reg.gauge("x_gauge");
    g.set(7);
    reg.reset();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_TRUE(reg.contains("x_total"));
    EXPECT_EQ(&reg.counter("x_total"), &a); // same slot, still valid
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Gauge, HighWaterOnlyRaises)
{
    Gauge g;
    g.high(5);
    g.high(3);
    EXPECT_EQ(g.value(), 5);
    g.high(9);
    EXPECT_EQ(g.value(), 9);
}

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

TEST(Tracer, RingOverflowKeepsNewestAndCountsDropped)
{
    Tracer t;
    t.enable(/*capacity=*/8);
    for (int i = 0; i < 20; ++i) {
        uint64_t id = t.beginSpan();
        t.endSpan(id, 0, Tracer::nowNs(), "tick", "");
    }
    EXPECT_EQ(t.recorded(), 20u);
    EXPECT_EQ(t.dropped(), 12u);
    std::vector<SpanRecord> spans = t.snapshot();
    ASSERT_EQ(spans.size(), 8u);
    // Oldest-first, and the survivors are the 8 newest ids (13..20).
    EXPECT_EQ(spans.front().id, 13u);
    EXPECT_EQ(spans.back().id, 20u);
    for (size_t i = 1; i < spans.size(); ++i)
        EXPECT_GT(spans[i].id, spans[i - 1].id);

    t.clear();
    EXPECT_TRUE(t.snapshot().empty());
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, SpanVolumeReachesTheCounterRegistry)
{
    // Satellite counters: every committed span bumps
    // dvp_trace_spans_total, every overwrite bumps
    // dvp_trace_dropped_total — so a Prometheus scrape can watch span
    // volume and ring pressure without pulling the trace dump.
    auto &reg = Registry::global();
    uint64_t spans0 = reg.counter("dvp_trace_spans_total").value();
    uint64_t dropped0 = reg.counter("dvp_trace_dropped_total").value();

    Tracer t;
    t.enable(/*capacity=*/4);
    for (int i = 0; i < 10; ++i) {
        uint64_t id = t.beginSpan();
        t.endSpan(id, 0, Tracer::nowNs(), "tick", "");
    }

    EXPECT_EQ(reg.counter("dvp_trace_spans_total").value() - spans0,
              10u);
    EXPECT_EQ(reg.counter("dvp_trace_dropped_total").value() -
                  dropped0,
              6u);
}

TEST(Tracer, SpanNestingRecordsParentChild)
{
    Tracer &t = Tracer::global();
    t.clear();
    t.enable();
    {
        Span outer("outer", "o");
        {
            Span inner("inner", "i");
        }
    }
    t.disable();
    std::vector<SpanRecord> spans = t.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Inner completes (and commits) first.
    EXPECT_STREQ(spans[0].name, "inner");
    EXPECT_STREQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_STREQ(spans[0].detail, "i");
    EXPECT_GE(spans[0].startNs, spans[1].startNs);
    EXPECT_LE(spans[0].endNs, spans[1].endNs);
    t.clear();
}

TEST(Tracer, DisabledSpanCostsNothingAndRecordsNothing)
{
    Tracer &t = Tracer::global();
    t.clear();
    ASSERT_FALSE(t.enabled());
    {
        Span s("ghost", "never recorded");
        EXPECT_FALSE(s.active());
    }
    EXPECT_EQ(t.recorded(), 0u);
}

// ---------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------

Registry &
goldenRegistry()
{
    static Registry reg; // not movable (mutex): populate in place
    static bool init = [] {
        reg.counter("t_events_total").add(3);
        reg.gauge("t_depth").set(-5);
        Histogram &h = reg.histogram("t_lat{op=\"x\"}");
        h.observe(1);
        h.observe(2);
        h.observe(3);
        return true;
    }();
    (void)init;
    return reg;
}

TEST(Exporters, PrometheusGolden)
{
    const char *expected = "# TYPE t_events_total counter\n"
                           "t_events_total 3\n"
                           "# TYPE t_depth gauge\n"
                           "t_depth -5\n"
                           "# TYPE t_lat histogram\n"
                           "t_lat{op=\"x\",le=\"1\"} 1\n"
                           "t_lat{op=\"x\",le=\"3\"} 3\n"
                           "t_lat{op=\"x\",le=\"+Inf\"} 3\n"
                           "t_lat_sum{op=\"x\"} 6\n"
                           "t_lat_count{op=\"x\"} 3\n"
                           "t_lat_max{op=\"x\"} 3\n";
    EXPECT_EQ(exportPrometheus(goldenRegistry()), expected);
}

TEST(Exporters, PrometheusFilterDropsMetrics)
{
    std::string text =
        exportPrometheus(goldenRegistry(), [](const std::string &n) {
            return n.find("t_depth") == std::string::npos;
        });
    EXPECT_EQ(text.find("t_depth"), std::string::npos);
    EXPECT_NE(text.find("t_events_total 3"), std::string::npos);
}

TEST(Exporters, TraceNdjsonCarriesSpansAndSummary)
{
    Tracer t;
    t.enable(16);
    uint64_t id = t.beginSpan();
    t.endSpan(id, 0, Tracer::nowNs(), "phase", "det\"ail");
    std::string text = exportTraceNdjson(t);
    EXPECT_NE(text.find(R"("name":"phase")"), std::string::npos);
    EXPECT_NE(text.find(R"("detail":"det\"ail")"), std::string::npos);
    EXPECT_NE(
        text.find(R"({"type":"trace_summary","recorded":1,"dropped":0})"),
        std::string::npos);
}

// ---------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------

struct ObsWorld
{
    nobench::Config cfg;
    engine::DataSet data;
    std::unique_ptr<nobench::QuerySet> qs;

    explicit ObsWorld(uint64_t docs = 800)
    {
        cfg.numDocs = docs;
        cfg.seed = 77;
        data = nobench::generateDataSet(cfg);
        qs = std::make_unique<nobench::QuerySet>(data, cfg);
    }
};

TEST(EngineObs, CounterMergeDeterministicAcrossThreadCounts)
{
    ObsWorld w;
    engine::Database db(
        w.data, layout::Layout::rowBased(w.data.catalog.allAttrs()),
        "row");
    Rng rng(5);
    engine::Query q = w.qs->instantiate(nobench::kQ1, rng);

    const std::string rows_key =
        "dvp_rows_scanned_total{layout=\"row\"}";
    const std::string touch_key =
        "dvp_partition_touches_total{layout=\"row\"}";
    std::vector<uint64_t> rows_seen, touches_seen;
    for (size_t nthreads : {1u, 2u, 4u, 8u}) {
        Registry::global().reset();
        engine::Executor exec(db, nthreads);
        exec.run(q);
        rows_seen.push_back(
            Registry::global().counter(rows_key).value());
        touches_seen.push_back(
            Registry::global().counter(touch_key).value());
    }
    for (size_t i = 1; i < rows_seen.size(); ++i) {
        EXPECT_EQ(rows_seen[i], rows_seen[0]) << "run " << i;
        EXPECT_EQ(touches_seen[i], touches_seen[0]) << "run " << i;
    }
    EXPECT_GT(rows_seen[0], 0u);
}

TEST(EngineObs, SerialFixedSeedPrometheusByteIdentical)
{
    ObsWorld w;
    engine::Database db(
        w.data, layout::Layout::rowBased(w.data.catalog.allAttrs()),
        "row");
    // Wall-clock histograms legitimately differ between runs; every
    // other metric must reproduce exactly for a fixed-seed serial run.
    MetricFilter no_wallclock = [](const std::string &name) {
        return name.find("_ns") == std::string::npos;
    };
    auto run_once = [&] {
        Registry::global().reset();
        Rng rng(6);
        engine::Executor exec(db);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            exec.run(w.qs->instantiate(t, rng));
        return exportPrometheus(Registry::global(), no_wallclock);
    };
    std::string first = run_once();
    std::string second = run_once();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("dvp_queries_total"), std::string::npos);
    EXPECT_NE(first.find("dvp_rows_scanned_total{layout=\"row\"}"),
              std::string::npos);
}

TEST(AdaptiveObs, SpansRecoverRepartitionCountAndDuration)
{
    ObsWorld w(1200);
    Rng rng(7);
    std::vector<engine::Query> initial = nobench::representatives(
        *w.qs, nobench::Mix::uniform(), rng);

    adaptive::Params prm;
    prm.background = false;
    prm.window = 40;
    prm.changeThreshold = 0.4;
    adaptive::AdaptiveEngine eng(w.data, initial, prm);

    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.enable();
    for (int i = 0; i < 60; ++i)
        eng.execute(w.qs->instantiate(i % nobench::kNumTemplates, rng));
    for (int i = 0; i < 120; ++i)
        eng.execute(
            w.qs->instantiateShifted(i % nobench::kNumTemplates, rng));
    tracer.disable();

    const adaptive::AdaptationStats &st = eng.adaptation();
    ASSERT_GE(st.repartitions.load(), 1u);

    uint64_t repartition_spans = 0, change_spans = 0;
    uint64_t partitioner_spans = 0, swap_spans = 0;
    uint64_t last_repartition_ns = 0, last_repartition_id = 0;
    uint64_t nested_in_last = 0;
    for (const SpanRecord &s : tracer.snapshot()) {
        if (std::string(s.name) == "repartition") {
            ++repartition_spans;
            last_repartition_ns = s.durationNs();
            last_repartition_id = s.id;
        } else if (std::string(s.name) == "change_detected") {
            ++change_spans;
        } else if (std::string(s.name) == "partitioner") {
            ++partitioner_spans;
        } else if (std::string(s.name) == "swap") {
            ++swap_spans;
        }
    }
    for (const SpanRecord &s : tracer.snapshot())
        if (s.parent == last_repartition_id)
            ++nested_in_last;

    // Span counts match the engine's own accounting.
    EXPECT_EQ(repartition_spans, st.repartitions.load());
    EXPECT_EQ(partitioner_spans, st.repartitions.load());
    EXPECT_EQ(swap_spans, st.repartitions.load());
    EXPECT_GE(change_spans, st.changesDetected.load());
    EXPECT_GE(nested_in_last, 2u); // partitioner + build + swap

    // The span brackets the engine's measured duration: it opens just
    // before the timer and closes just after the stats update.
    double span_s = static_cast<double>(last_repartition_ns) / 1e9;
    double stat_s = st.lastRepartitionSeconds.load();
    EXPECT_GE(span_s, stat_s * 0.9);
    EXPECT_LE(span_s, stat_s * 1.5 + 0.05);
    tracer.clear();
}


TEST(DumpScope, WritesMetricsAndTraceFiles)
{
    std::string dir = ::testing::TempDir();
    std::string mpath = dir + "/obs_metrics.prom";
    std::string tpath = dir + "/obs_trace.ndjson";
    Registry::global().counter("dvp_test_dumpscope_total").add(1);
    {
        DumpScope scope(mpath, tpath);
        EXPECT_TRUE(Tracer::global().enabled()); // armed by trace path
        Span s("dumped", "");
    }
    Tracer::global().disable();
    Tracer::global().clear();

    auto slurp = [](const std::string &path) {
        std::FILE *f = std::fopen(path.c_str(), "r");
        EXPECT_NE(f, nullptr) << path;
        std::string text;
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        return text;
    };
    EXPECT_NE(slurp(mpath).find("dvp_test_dumpscope_total"),
              std::string::npos);
    EXPECT_NE(slurp(tpath).find(R"("name":"dumped")"),
              std::string::npos);
}

} // namespace
} // namespace dvp::obs

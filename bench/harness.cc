#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>

#include "json/writer.hh"
#include "obs/export.hh"
#include "util/logging.hh"

namespace dvp::bench
{

Options
Options::parse(int argc, char **argv, uint64_t default_docs,
               size_t default_log)
{
    // Benchmark hygiene: without this, glibc trims freed result-set
    // pages back to the OS between runs (heap-top dependent), so
    // identical queries re-fault ~20 MB of result pages or not based
    // on allocator topology luck — several-ms noise that would swamp
    // layout effects.  Keeping freed memory makes repeats measure the
    // engine, not the page-fault handler.
    mallopt(M_TRIM_THRESHOLD, INT_MAX);
    mallopt(M_MMAP_THRESHOLD, INT_MAX);

    Options opt;
    opt.docs = default_docs;
    opt.logSize = default_log;
    opt.threads = std::max<size_t>(std::thread::hardware_concurrency(), 1);
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) {
            if (i + 1 >= argc)
                fatal("%s requires a value", flag);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--docs")) {
            opt.docs = std::strtoull(need("--docs"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--seed")) {
            opt.seed = std::strtoull(need("--seed"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--log")) {
            opt.logSize = std::strtoull(need("--log"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--repeats")) {
            opt.repeats = std::atoi(need("--repeats"));
        } else if (!std::strcmp(argv[i], "--sparse-groups")) {
            opt.sparseGroups = std::atoi(need("--sparse-groups"));
        } else if (!std::strcmp(argv[i], "--csv")) {
            opt.csv = true;
        } else if (!std::strcmp(argv[i], "--threads")) {
            opt.threads = std::strtoull(need("--threads"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--json")) {
            opt.jsonPath = need("--json");
        } else if (!std::strcmp(argv[i], "--metrics")) {
            opt.metricsPath = need("--metrics");
        } else if (!std::strcmp(argv[i], "--trace")) {
            opt.tracePath = need("--trace");
        } else if (!std::strcmp(argv[i], "--help")) {
            std::printf(
                "usage: %s [--docs N] [--seed S] [--log N]\n"
                "          [--repeats N] [--sparse-groups N] [--csv]\n"
                "          [--threads N] [--json PATH]\n"
                "          [--metrics PATH] [--trace PATH]\n",
                argv[0]);
            std::exit(0);
        } else {
            fatal("unknown option '%s' (try --help)", argv[i]);
        }
    }
    if (opt.docs == 0 || opt.repeats <= 0)
        fatal("--docs and --repeats must be positive");
    if (opt.threads == 0)
        opt.threads = 1;

    if (!opt.metricsPath.empty() || !opt.tracePath.empty()) {
        // Touch the global registry/tracer singletons before the static
        // DumpScope below so static destruction runs the dump while
        // they are still alive, then arm one process-wide dump-at-exit.
        obs::Registry::global();
        obs::Tracer::global();
        static obs::DumpScope scope;
        scope = obs::DumpScope(opt.metricsPath, opt.tracePath);
    }
    return opt;
}

uint64_t
peakRssBytes()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

JsonLog::JsonLog(const Options &opt, const std::string &bench)
    : bench(bench), docs(opt.docs), seed(opt.seed),
      default_threads(opt.threads)
{
    if (opt.jsonPath.empty())
        return;
    file = std::fopen(opt.jsonPath.c_str(), "a");
    if (file == nullptr)
        fatal("cannot open --json file '%s'", opt.jsonPath.c_str());
}

JsonLog::~JsonLog()
{
    if (file != nullptr)
        std::fclose(file);
}

void
JsonLog::record(const std::string &engine, const std::string &query,
                double seconds)
{
    record(engine, query, seconds, default_threads);
}

void
JsonLog::record(const std::string &engine, const std::string &query,
                double seconds, size_t threads)
{
    if (file == nullptr)
        return;
    std::fprintf(file,
                 "{\"bench\":\"%s\",\"engine\":\"%s\",\"query\":\"%s\","
                 "\"seconds\":%.9f,\"threads\":%zu,\"docs\":%llu,"
                 "\"seed\":%llu,\"rss_peak_bytes\":%llu}\n",
                 json::escape(bench).c_str(), json::escape(engine).c_str(),
                 json::escape(query).c_str(), seconds, threads,
                 static_cast<unsigned long long>(docs),
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(peakRssBytes()));
    std::fflush(file); // line-buffered semantics for tail -f / crashes
}

void
JsonLog::value(const std::string &engine, const std::string &query,
               const std::string &metric, double v,
               const std::string &unit)
{
    if (file == nullptr)
        return;
    std::fprintf(file,
                 "{\"bench\":\"%s\",\"engine\":\"%s\",\"query\":\"%s\","
                 "\"metric\":\"%s\",\"value\":%.9g,\"unit\":\"%s\","
                 "\"threads\":%zu,\"docs\":%llu,\"seed\":%llu,"
                 "\"rss_peak_bytes\":%llu}\n",
                 json::escape(bench).c_str(), json::escape(engine).c_str(),
                 json::escape(query).c_str(), json::escape(metric).c_str(),
                 v, json::escape(unit).c_str(), default_threads,
                 static_cast<unsigned long long>(docs),
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(peakRssBytes()));
    std::fflush(file);
}

nobench::Config
Options::nobenchConfig() const
{
    nobench::Config cfg;
    cfg.numDocs = docs;
    cfg.seed = seed;
    cfg.groupsPerDoc = sparseGroups;
    return cfg;
}

const char *
engineName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Dvp: return "Hybrid(DVP)";
      case EngineKind::Argo1: return "argo1";
      case EngineKind::Argo3: return "argo3";
      case EngineKind::Column: return "col";
      case EngineKind::Row: return "row";
      case EngineKind::Hyrise: return "Hyrise";
    }
    return "?";
}

const std::vector<EngineKind> &
allEngines()
{
    static const std::vector<EngineKind> order = {
        EngineKind::Dvp, EngineKind::Argo1, EngineKind::Argo3,
        EngineKind::Column, EngineKind::Row, EngineKind::Hyrise};
    return order;
}

EngineSet::EngineSet(const Options &opt)
    : cfg(opt.nobenchConfig()),
      threads_(opt.threads == 0 ? 1 : opt.threads)
{
    Timer total;
    inform("generating %llu NoBench documents (seed %llu)...",
           static_cast<unsigned long long>(cfg.numDocs),
           static_cast<unsigned long long>(cfg.seed));
    data_ = nobench::generateDataSet(cfg);
    qs = std::make_unique<nobench::QuerySet>(data_, cfg);

    Rng rng(opt.seed ^ 0xbadc0ffee0ddf00dULL);
    std::vector<engine::Query> reps = nobench::representatives(
        *qs, nobench::Mix::uniform(), rng);

    auto attrs = data_.catalog.allAttrs();
    inform("building row layout...");
    row_ = std::make_unique<engine::Database>(
        data_, layout::Layout::rowBased(attrs), "row");
    inform("building column layout...");
    col_ = std::make_unique<engine::Database>(
        data_, layout::Layout::columnBased(attrs), "col");

    inform("running DVP partitioner...");
    core::Partitioner partitioner(data_, reps);
    dvp_search = partitioner.run();
    inform("DVP: %zu partitions in %.2f s (cost %.4f -> %.4f)",
           dvp_search.layout.partitionCount(), dvp_search.seconds,
           dvp_search.initialCost, dvp_search.finalCost);
    dvp_ = std::make_unique<engine::Database>(data_, dvp_search.layout,
                                              "DVP");

    inform("running Hyrise layouter...");
    hyrise::HyriseLayouter hl(data_.catalog, reps, data_.docs.size());
    hyrise::HyriseResult hres = hl.run();
    invariant(hres.layout.has_value(),
              "Hyrise layouter failed on the default configuration");
    inform("Hyrise: %zu partitions from %zu primaries (%.2f s)",
           hres.layout->partitionCount(), hres.primaryPartitions,
           hres.seconds);
    hyrise_ = std::make_unique<engine::Database>(data_, *hres.layout,
                                                 "Hyrise");

    inform("building Argo1/Argo3 stores...");
    argo1_ = std::make_unique<argo::ArgoStore>(data_,
                                               argo::Variant::Argo1);
    argo3_ = std::make_unique<argo::ArgoStore>(data_,
                                               argo::Variant::Argo3);
    inform("engine set ready in %.1f s", total.seconds());
}

engine::ResultSet
EngineSet::run(EngineKind kind, const engine::Query &q)
{
    if (const argo::ArgoStore *store = argoStore(kind)) {
        argo::ArgoExecutor exec(const_cast<argo::ArgoStore &>(*store));
        return exec.run(q);
    }
    engine::Executor exec(const_cast<engine::Database &>(
                              *database(kind)),
                          threads_);
    return exec.run(q);
}

engine::ResultSet
EngineSet::run(EngineKind kind, const engine::Query &q,
               perf::MemoryHierarchy &mh)
{
    if (const argo::ArgoStore *store = argoStore(kind)) {
        argo::ArgoExecutor exec(const_cast<argo::ArgoStore &>(*store));
        return exec.run(q, mh);
    }
    engine::Executor exec(const_cast<engine::Database &>(
        *database(kind)));
    return exec.run(q, mh);
}

const engine::Database *
EngineSet::database(EngineKind kind) const
{
    switch (kind) {
      case EngineKind::Dvp: return dvp_.get();
      case EngineKind::Column: return col_.get();
      case EngineKind::Row: return row_.get();
      case EngineKind::Hyrise: return hyrise_.get();
      default: return nullptr;
    }
}

const argo::ArgoStore *
EngineSet::argoStore(EngineKind kind) const
{
    switch (kind) {
      case EngineKind::Argo1: return argo1_.get();
      case EngineKind::Argo3: return argo3_.get();
      default: return nullptr;
    }
}

double
EngineSet::buildSeconds(EngineKind kind) const
{
    if (const auto *db = database(kind))
        return db->buildSeconds();
    return argoStore(kind)->buildSeconds();
}

size_t
EngineSet::tableCount(EngineKind kind) const
{
    if (const auto *db = database(kind))
        return db->tableCount();
    return argoStore(kind)->tableCount();
}

size_t
EngineSet::storageBytes(EngineKind kind) const
{
    if (const auto *db = database(kind))
        return db->storageBytes();
    return argoStore(kind)->storageBytes();
}

size_t
EngineSet::nullBytes(EngineKind kind) const
{
    if (const auto *db = database(kind))
        return db->nullBytes();
    return argoStore(kind)->nullBytes();
}

double
timeMedian(int repeats, const std::function<void()> &fn)
{
    std::vector<double> samples;
    samples.reserve(repeats);
    for (int r = 0; r < repeats; ++r) {
        Timer t;
        fn();
        samples.push_back(t.seconds());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

void
emit(const TablePrinter &t, const std::string &title, bool csv)
{
    t.print(title);
    if (csv)
        std::printf("%s\n", t.csv().c_str());
}

} // namespace dvp::bench

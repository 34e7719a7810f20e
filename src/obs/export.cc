#include "obs/export.hh"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "json/writer.hh"
#include "util/logging.hh"

namespace dvp::obs
{

namespace
{

/** Split "name{labels}" into base name and brace-enclosed label set. */
void
splitName(const std::string &full, std::string &base,
          std::string &labels)
{
    size_t brace = full.find('{');
    if (brace == std::string::npos) {
        base = full;
        labels.clear();
    } else {
        base = full.substr(0, brace);
        labels = full.substr(brace); // includes the braces
    }
}

/** "name{a="b"}" + extra label -> "name{a="b",le="42"}". */
std::string
withLabel(const std::string &full, const std::string &label)
{
    std::string base, labels;
    splitName(full, base, labels);
    if (labels.empty())
        return base + "{" + label + "}";
    return base + labels.substr(0, labels.size() - 1) + "," + label +
           "}";
}

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

bool
kept(const MetricFilter &keep, const std::string &name)
{
    return !keep || keep(name);
}

} // namespace

std::string
exportPrometheus(const Registry &reg, const MetricFilter &keep)
{
    std::string out;
    // One TYPE line per base name, emitted before the base's first
    // sample.  Within each metric type names iterate sorted, so equal
    // registry state yields byte-identical text.
    std::string last_base;
    auto typeLine = [&](const std::string &full, const char *type) {
        std::string base, labels;
        splitName(full, base, labels);
        if (base != last_base) {
            appendf(out, "# TYPE %s %s\n", base.c_str(), type);
            last_base = base;
        }
    };

    reg.forEach([&](const std::string &name, const auto &metric) {
        using M = std::decay_t<decltype(metric)>;
        if (!kept(keep, name))
            return;
        if constexpr (std::is_same_v<M, Counter>) {
            typeLine(name, "counter");
            appendf(out, "%s %" PRIu64 "\n", name.c_str(),
                    metric.value());
        } else if constexpr (std::is_same_v<M, Gauge>) {
            typeLine(name, "gauge");
            appendf(out, "%s %" PRId64 "\n", name.c_str(),
                    metric.value());
        } else if constexpr (std::is_same_v<M, Histogram>) {
            typeLine(name, "histogram");
            uint64_t cumulative = 0;
            for (size_t b = 0; b < Histogram::kBuckets; ++b) {
                uint64_t c = metric.bucketCount(b);
                if (c == 0)
                    continue; // sparse: only occupied buckets
                cumulative += c;
                std::string series = withLabel(
                    name, "le=\"" +
                              std::to_string(Histogram::bucketBound(b)) +
                              "\"");
                appendf(out, "%s %" PRIu64 "\n", series.c_str(),
                        cumulative);
            }
            std::string inf = withLabel(name, "le=\"+Inf\"");
            appendf(out, "%s %" PRIu64 "\n", inf.c_str(),
                    metric.count());
            std::string base, labels;
            splitName(name, base, labels);
            appendf(out, "%s %" PRIu64 "\n",
                    (base + "_sum" + labels).c_str(), metric.sum());
            appendf(out, "%s %" PRIu64 "\n",
                    (base + "_count" + labels).c_str(), metric.count());
            appendf(out, "%s %" PRIu64 "\n",
                    (base + "_max" + labels).c_str(), metric.maxValue());
        }
    });
    return out;
}

std::string
exportTraceNdjson(const Tracer &tracer)
{
    std::string out;
    for (const SpanRecord &s : tracer.snapshot()) {
        appendf(out,
                "{\"type\":\"span\",\"name\":\"%s\",\"detail\":\"%s\","
                "\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                ",\"thread\":%u,\"start_ns\":%" PRIu64
                ",\"dur_ns\":%" PRIu64 "}\n",
                json::escape(s.name).c_str(),
                json::escape(s.detail).c_str(),
                s.id, s.parent, s.thread, s.startNs, s.durationNs());
    }
    appendf(out,
            "{\"type\":\"trace_summary\",\"recorded\":%" PRIu64
            ",\"dropped\":%" PRIu64 "}\n",
            tracer.recorded(), tracer.dropped());
    return out;
}

DumpScope::DumpScope(std::string metrics_path, std::string trace_path)
    : metrics_path_(std::move(metrics_path)),
      trace_path_(std::move(trace_path)), armed_(true)
{
    // Fail fast on unwritable paths, before hours of bench run.
    for (const std::string &p : {metrics_path_, trace_path_}) {
        if (p.empty())
            continue;
        std::FILE *f = std::fopen(p.c_str(), "w");
        if (f == nullptr)
            fatal("cannot open observability output '%s'", p.c_str());
        std::fclose(f);
    }
    if (!trace_path_.empty())
        Tracer::global().enable();
}

DumpScope::DumpScope(DumpScope &&other) noexcept
    : metrics_path_(std::move(other.metrics_path_)),
      trace_path_(std::move(other.trace_path_)), armed_(other.armed_)
{
    other.armed_ = false;
}

DumpScope &
DumpScope::operator=(DumpScope &&other) noexcept
{
    if (this != &other) {
        if (armed_)
            dump();
        metrics_path_ = std::move(other.metrics_path_);
        trace_path_ = std::move(other.trace_path_);
        armed_ = other.armed_;
        other.armed_ = false;
    }
    return *this;
}

DumpScope::~DumpScope()
{
    if (armed_)
        dump();
}

void
DumpScope::dump()
{
    armed_ = false;
    auto write = [](const std::string &path, const std::string &text) {
        if (path.empty())
            return;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            warn("cannot write observability output '%s'", path.c_str());
            return;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    };
    if (!metrics_path_.empty()) {
        write(metrics_path_, exportPrometheus(Registry::global()));
        inform("metrics written to %s", metrics_path_.c_str());
    }
    if (!trace_path_.empty()) {
        write(trace_path_, exportTraceNdjson(Tracer::global()));
        inform("trace written to %s", trace_path_.c_str());
    }
}

DumpScope
scanArgs(int &argc, char **argv)
{
    std::string metrics, trace;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        bool is_metrics = std::strcmp(argv[i], "--metrics") == 0;
        bool is_trace = std::strcmp(argv[i], "--trace") == 0;
        if (is_metrics || is_trace) {
            if (i + 1 >= argc)
                fatal("%s requires a value", argv[i]);
            (is_metrics ? metrics : trace) = argv[++i];
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    argv[argc] = nullptr;
    if (trace.empty() && std::getenv("DVP_TRACE") != nullptr)
        Tracer::global().enable();
    return DumpScope(std::move(metrics), std::move(trace));
}

} // namespace dvp::obs

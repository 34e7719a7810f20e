/**
 * @file
 * Entry point of the end-to-end benchmark binary.
 *
 *   dvp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--out-dir DIR]
 *
 * Human-readable progress goes to stdout; the last stdout line is one
 * JSON object {"correct", "attempted", "failed", "metrics"} holding the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 * The exit code is 0 only when every answer checked out.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
calibrateMs()
{
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
        uint64_t t0 = nowNs();
        uint64_t x = 0x9e3779b97f4a7c15ull;
        for (int i = 0; i < 20'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x += static_cast<uint64_t>(i);
        }
        // Keep the loop from being folded away.
        volatile uint64_t sink = x;
        (void)sink;
        ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    return median(ms);
}

void
SpanLog::record(uint64_t id, const std::string &name, uint64_t request,
                uint64_t parent, uint64_t startNs, uint64_t endNs)
{
    if (id == 0)
        return;
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back({id, parent, request, name, startNs, endNs});
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

std::string
SpanLog::writeNdjson(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return "cannot write " + path;
    std::lock_guard<std::mutex> lock(mu);
    for (const Span &s : spans)
        out << "{\"source\":\"bench\",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << "}\n";
    for (const dvp::obs::SpanRecord &r :
         dvp::obs::Tracer::global().snapshot()) {
        std::string detail;
        for (const char *c = r.detail; *c != '\0'; ++c)
            if (*c != '"' && *c != '\\' &&
                static_cast<unsigned char>(*c) >= 0x20)
                detail += *c;
        out << "{\"source\":\"server\",\"id\":" << r.id
            << ",\"parent\":" << r.parent << ",\"thread\":" << r.thread
            << ",\"name\":\"" << r.name << "\",\"detail\":\"" << detail
            << "\",\"start_ns\":" << r.startNs
            << ",\"end_ns\":" << r.endNs << "}\n";
    }
    return out ? "" : "short write to " + path;
}

} // namespace perfbench

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload serve_mix|scan_parallel|"
                 "ingest_restart --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv0);
    return 2;
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

void
printMetrics(const std::vector<perfbench::Metric> &ms)
{
    std::printf("\"metrics\": {");
    for (size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *v = argv[++i];
        uint64_t n = 0;
        if (a == "--workload") {
            args.workload = v;
            have_workload = true;
        } else if (a == "--seed" && parseUnsigned(v, n)) {
            args.seed = n;
        } else if (a == "--seconds" && parseUnsigned(v, n) && n >= 1 &&
                   n <= 600) {
            args.seconds = static_cast<unsigned>(n);
        } else if (a == "--trace" && parseUnsigned(v, n) && n <= 1) {
            args.trace = n == 1;
        } else if (a == "--out-dir") {
            args.outDir = v;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_workload)
        return usage(argv[0]);

    // Allocator settings, as the repository's bench/ harness pins them.
    // With glibc's defaults, whether freed result and scan buffers go
    // back to the kernel (and fault in again on the next query) depends
    // on the heap top, so on the sizes a seed's data happens to
    // allocate: Q10 took 25 ms on one seed and 63 ms on another.
    // Pinning both thresholds makes every seed measure the program,
    // not the trim heuristic.
    mallopt(M_TRIM_THRESHOLD, INT_MAX);
    mallopt(M_MMAP_THRESHOLD, INT_MAX);

    // Warnings stay visible; routine status lines would drown the
    // benchmark's own output.
    dvp::setLogLevel(dvp::LogLevel::Warn);

    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n",
                     args.outDir.c_str(), ec.message().c_str());
        return 1;
    }

    perfbench::SpanLog spans;
    if (args.trace)
        spans.enable();
    perfbench::Report rep;
    if (!perfbench::runWorkload(args, spans, rep))
        return usage(argv[0]);

    if (args.trace) {
        std::string path = args.outDir + "/spans-" + args.workload +
                           "-" + std::to_string(args.seed) + ".ndjson";
        std::string err = spans.writeNdjson(path);
        if (!err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
        std::printf("spans: %zu benchmark spans (+ program tracer) -> "
                    "%s\n",
                    spans.size(), path.c_str());
    }

    for (const std::string &p : rep.problems)
        std::printf("FAILED: %s\n", p.c_str());
    bool correct = rep.failed == 0 && rep.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    printMetrics(args.trace ? rep.perLayer : rep.endToEnd);
    std::printf("}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

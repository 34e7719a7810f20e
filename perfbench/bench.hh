/**
 * @file
 * Shared pieces of the end-to-end benchmark (see README.md): run
 * arguments, the metric sink, summary statistics, the host drift probe
 * and the benchmark's own span recorder.
 *
 * Everything here lives on the benchmark side of the public APIs; the
 * program under test is only ever called, never instrumented.
 */

#ifndef DVP_PERFBENCH_BENCH_HH
#define DVP_PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10; ///< scales the fixed work of the run
    bool trace = false;    ///< traced run: per-layer metrics only
    std::string outDir = ".bench_out";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Outcome of a workload run. */
struct Report
{
    std::vector<Metric> endToEnd; ///< printed with --trace 0
    std::vector<Metric> perLayer; ///< printed with --trace 1
    uint64_t attempted = 0;       ///< operations issued
    uint64_t failed = 0;          ///< failed, refused or wrong answers
    std::vector<std::string> problems; ///< first few failure reasons

    void
    fail(const std::string &why)
    {
        ++failed;
        if (problems.size() < 8)
            problems.push_back(why);
    }
};

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Median (mean of the middle two for even sizes); 0 when empty. */
double median(std::vector<double> v);

/** Linear-interpolated percentile @p p in [0,1]; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &v);

/** Peak resident set of this process (VmHWM), in MiB. */
double peakRssMb();

/**
 * Host drift probe: a fixed single-thread integer loop, median of
 * three timings, in milliseconds.  It touches nothing of the program,
 * so its run-to-run change is the machine's, not the code's.
 */
double calibrateMs();

/**
 * The benchmark's own spans: one per layer call it makes, grouped by
 * a request id (the wire trace id for queries).  Recording is a no-op
 * unless enabled; spans stay in memory until writeNdjson().
 */
class SpanLog
{
  public:
    struct Span
    {
        uint64_t id = 0;
        uint64_t parent = 0;
        uint64_t request = 0;
        std::string name;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
    };

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** A fresh span id (0 when disabled). */
    uint64_t
    nextId()
    {
        return enabled_ ? next_.fetch_add(1, std::memory_order_relaxed)
                        : 0;
    }

    /** Record the finished span @p id (no-op when disabled). */
    void record(uint64_t id, const std::string &name, uint64_t request,
                uint64_t parent, uint64_t startNs, uint64_t endNs);

    /** Record a finished span under a fresh id; returns the id. */
    uint64_t
    add(const std::string &name, uint64_t request, uint64_t parent,
        uint64_t startNs, uint64_t endNs)
    {
        uint64_t id = nextId();
        record(id, name, request, parent, startNs, endNs);
        return id;
    }

    /**
     * Write the recorded spans, then the program's own obs tracer
     * spans, as NDJSON to @p path.  @return "" or the error.
     */
    std::string writeNdjson(const std::string &path) const;

    size_t size() const;

  private:
    bool enabled_ = false;
    std::atomic<uint64_t> next_{1};
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** RAII span over one layer call (records on destruction). */
class Scoped
{
  public:
    Scoped(SpanLog &log, const char *name, uint64_t request = 0,
           uint64_t parent = 0)
        : log_(log), name_(name), request_(request), parent_(parent),
          id_(log.nextId()), start_(nowNs())
    {
    }
    ~Scoped()
    {
        log_.record(id_, name_, request_, parent_, start_, nowNs());
    }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    /** This span's id, the parent of spans opened inside it. */
    uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    const char *name_;
    uint64_t request_;
    uint64_t parent_;
    uint64_t id_;
    uint64_t start_;
};

/** Run the workload named in @p args; false for an unknown name. */
bool runWorkload(const Args &args, SpanLog &spans, Report &out);

} // namespace perfbench

#endif // DVP_PERFBENCH_BENCH_HH

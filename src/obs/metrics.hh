/**
 * @file
 * Thread-safe metrics registry: monotonic counters, gauges, and
 * log2-bucketed histograms with p50/p95/p99/max.
 *
 * Design constraints (DESIGN.md "Observability"):
 *  - Hot-path updates are single relaxed atomic RMWs on pre-resolved
 *    metric handles; name resolution (mutex + map lookup) happens once
 *    per call site via the static-cached DVP_COUNTER_* macros, or once
 *    per query for runtime-labelled names.
 *  - The header is self-contained (everything inline) so the lowest
 *    layers (util/thread_pool, util/arena, storage/dictionary) can
 *    instrument themselves without a library-level dependency cycle:
 *    dvp_obs links dvp_util for the exporters, never the reverse.
 *  - The registry is the only place a count or level is kept: the
 *    server's STATS frame and /metrics both render it, so the
 *    instrumentation is always compiled in.
 *  - reset() zeroes values in place and never invalidates handles:
 *    call sites cache `Counter &` references across resets.
 *
 * Prometheus-style labels are part of the metric name string, e.g.
 *   counter("dvp_rows_scanned_total{layout=\"DVP\"}")
 * The exporters split the base name from the label set when emitting
 * TYPE lines; the registry itself treats the full string as the key.
 */

#ifndef DVP_OBS_METRICS_HH
#define DVP_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

namespace dvp::obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return v.load(std::memory_order_relaxed); }

    void reset() { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v{0};
};

/** Instantaneous signed level with a set/add/high-water interface. */
class Gauge
{
  public:
    void
    set(int64_t n)
    {
        v.store(n, std::memory_order_relaxed);
    }

    void
    add(int64_t n)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    /** Raise the gauge to @p n if it is below (high-water mark). */
    void
    high(int64_t n)
    {
        int64_t cur = v.load(std::memory_order_relaxed);
        while (cur < n &&
               !v.compare_exchange_weak(cur, n,
                                        std::memory_order_relaxed)) {
        }
    }

    int64_t value() const { return v.load(std::memory_order_relaxed); }

    void reset() { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v{0};
};

/**
 * Log2-bucketed histogram of unsigned samples (latencies in
 * nanoseconds by convention; any uint64 works).
 *
 * Bucket b counts samples in [2^(b-1), 2^b) (bucket 0 counts {0});
 * 64 buckets cover the whole uint64 range, so observe() is one shift
 * plus three relaxed RMWs and never saturates.  Quantiles answered
 * from bucket counts are exact to within a factor of 2 — the right
 * trade for spotting p99 regressions without a lock-free digest.
 */
class Histogram
{
  public:
    static constexpr size_t kBuckets = 65;

    void
    observe(uint64_t sample)
    {
        buckets_[bucketOf(sample)].fetch_add(1,
                                             std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(sample, std::memory_order_relaxed);
        uint64_t cur = max_.load(std::memory_order_relaxed);
        while (cur < sample &&
               !max_.compare_exchange_weak(cur, sample,
                                           std::memory_order_relaxed)) {
        }
    }

    /** Bucket index a sample lands in. */
    static size_t
    bucketOf(uint64_t sample)
    {
        size_t b = 0;
        while (sample != 0) {
            ++b;
            sample >>= 1;
        }
        return b;
    }

    /** Inclusive upper bound of bucket @p b (2^b - 1; bucket 0 = 0). */
    static uint64_t
    bucketBound(size_t b)
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return UINT64_MAX;
        return (uint64_t{1} << b) - 1;
    }

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t maxValue() const { return max_.load(std::memory_order_relaxed); }

    uint64_t
    bucketCount(size_t b) const
    {
        return buckets_[b].load(std::memory_order_relaxed);
    }

    /**
     * Quantile @p q in [0, 1]: the upper bound of the first bucket
     * whose cumulative count reaches q * count (so within 2x of the
     * exact order statistic).  Returns 0 for an empty histogram; the
     * 1.0 quantile returns the exact max.
     */
    uint64_t
    quantile(double q) const
    {
        uint64_t n = count();
        if (n == 0)
            return 0;
        if (q >= 1.0)
            return maxValue();
        auto rank = static_cast<uint64_t>(q * static_cast<double>(n));
        if (rank >= n)
            rank = n - 1;
        uint64_t seen = 0;
        for (size_t b = 0; b < kBuckets; ++b) {
            seen += bucketCount(b);
            if (seen > rank)
                return std::min(bucketBound(b), maxValue());
        }
        return maxValue();
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> buckets_[kBuckets]{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

/**
 * Name -> metric map.  Registration (first use of a name) takes a
 * mutex; the returned references are stable for the registry's
 * lifetime, so call sites resolve once and update lock-free.  Iteration
 * order is the sorted name order — exporters inherit determinism.
 */
class Registry
{
  public:
    Counter &
    counter(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto &slot = counters_[name];
        if (!slot)
            slot = std::make_unique<Counter>();
        return *slot;
    }

    Gauge &
    gauge(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto &slot = gauges_[name];
        if (!slot)
            slot = std::make_unique<Gauge>();
        return *slot;
    }

    Histogram &
    histogram(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto &slot = histograms_[name];
        if (!slot)
            slot = std::make_unique<Histogram>();
        return *slot;
    }

    /** True when @p name is registered (any metric type). */
    bool
    contains(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu);
        return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
               histograms_.count(name) != 0;
    }

    /** Registered metric count across all types. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /**
     * Zero every metric in place.  Handles cached by call sites stay
     * valid (names are never erased), which is what makes before/after
     * snapshots and deterministic re-runs cheap.
     */
    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mu);
        for (auto &[name, c] : counters_)
            c->reset();
        for (auto &[name, g] : gauges_)
            g->reset();
        for (auto &[name, h] : histograms_)
            h->reset();
    }

    /**
     * Visit every metric in sorted-name order within each type:
     * fn(name, counter), fn(name, gauge), fn(name, histogram)
     * overloads are selected by the metric reference type.
     */
    template <class F>
    void
    forEach(F fn) const
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &[name, c] : counters_)
            fn(name, static_cast<const Counter &>(*c));
        for (const auto &[name, g] : gauges_)
            fn(name, static_cast<const Gauge &>(*g));
        for (const auto &[name, h] : histograms_)
            fn(name, static_cast<const Histogram &>(*h));
    }

    /** The process-wide registry every instrumentation site targets. */
    static Registry &
    global()
    {
        // Never destroyed: static objects in other translation units
        // (a test fixture's Dictionary, say) flush metrics from their
        // own destructors, which may run after this one's would.  It
        // lives in static storage, as a plain function-local static
        // would: a heap block here would shift every later allocation
        // and with it the simulated cache counters (Figs 6-7).
        alignas(Registry) static unsigned char storage[sizeof(Registry)];
        static Registry *r = new (storage) Registry;
        return *r;
    }

  private:
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace dvp::obs

/*
 * Instrumentation macros.  The static-cached forms resolve the metric
 * name once per call site; use the dvp::obs::Registry API directly for
 * runtime-built (labelled) names.
 */
#define DVP_COUNTER_ADD(name, n)                                        \
    do {                                                                \
        static ::dvp::obs::Counter &dvp_obs_c_ =                        \
            ::dvp::obs::Registry::global().counter(name);               \
        dvp_obs_c_.add(n);                                              \
    } while (0)

#define DVP_COUNTER_INC(name) DVP_COUNTER_ADD(name, 1)

#define DVP_GAUGE_SET(name, v)                                          \
    do {                                                                \
        static ::dvp::obs::Gauge &dvp_obs_g_ =                          \
            ::dvp::obs::Registry::global().gauge(name);                 \
        dvp_obs_g_.set(v);                                              \
    } while (0)

#define DVP_GAUGE_ADD(name, v)                                          \
    do {                                                                \
        static ::dvp::obs::Gauge &dvp_obs_g_ =                          \
            ::dvp::obs::Registry::global().gauge(name);                 \
        dvp_obs_g_.add(v);                                              \
    } while (0)

#define DVP_GAUGE_HIGH(name, v)                                         \
    do {                                                                \
        static ::dvp::obs::Gauge &dvp_obs_g_ =                          \
            ::dvp::obs::Registry::global().gauge(name);                 \
        dvp_obs_g_.high(v);                                             \
    } while (0)

#define DVP_HISTOGRAM_OBSERVE(name, v)                                  \
    do {                                                                \
        static ::dvp::obs::Histogram &dvp_obs_h_ =                      \
            ::dvp::obs::Registry::global().histogram(name);             \
        dvp_obs_h_.observe(v);                                          \
    } while (0)

#endif // DVP_OBS_METRICS_HH

/**
 * @file
 * Shared morsel work-stealing thread pool.
 *
 * Execution model (after HyPer's morsel-driven parallelism): a caller
 * splits its work into n independent morsels and calls parallelFor().
 * The indices of every in-flight batch live in a shared dispatcher;
 * pool workers pull ("steal") indices from whichever batch has work
 * left, so an idle worker immediately helps any query still running —
 * including batches submitted by other threads.  The calling thread
 * participates as lane 0 of its own batch, so a pool of W threads
 * yields W+1 usable lanes and `threads == 1` costs no synchronization
 * at all (pure serial loop on the caller).
 *
 * Lanes give callers race-free scratch: fn(index, lane) is invoked
 * with a lane id in [0, laneCount()) that is stable per executing
 * thread within one batch, so per-lane accumulators (tracer counters,
 * partial aggregates) need no locks.  parallelFor() must not be
 * called from inside a morsel (no nesting).
 */

#ifndef DVP_UTIL_THREAD_POOL_HH
#define DVP_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dvp
{

class ThreadPool
{
  public:
    /** fn(index, lane): one morsel; lane identifies the executor. */
    using MorselFn = std::function<void(size_t, size_t)>;

    /** Spawn @p workers pool threads (lanes 1..workers). */
    explicit ThreadPool(size_t workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Usable lanes per batch: every pool thread plus the caller. */
    size_t laneCount() const { return workers_.size() + 1; }

    /**
     * Run fn(i, lane) for every i in [0, n) and block until all
     * complete.  At most @p max_lanes lanes (0 = no cap) execute the
     * batch concurrently; with an effective cap of 1 the loop runs
     * inline on the caller with zero synchronization.
     */
    void parallelFor(size_t n, size_t max_lanes, const MorselFn &fn);

    /**
     * The process-wide pool.  Sized so that at least 8 lanes exist
     * even on small machines (idle workers sleep), because tests and
     * scaling benches exercise up to 8 lanes regardless of core
     * count.
     */
    static ThreadPool &shared();

  private:
    /** One parallelFor invocation's shared dispatcher state. */
    struct Batch
    {
        const MorselFn *fn = nullptr;
        size_t n = 0;
        size_t worker_limit = 0;        ///< max pool lanes in this batch
        std::atomic<size_t> next{0};    ///< next morsel index to claim
        std::atomic<size_t> done{0};    ///< completed morsels
        std::atomic<size_t> joined{0};  ///< pool lanes currently inside
        std::mutex done_mutex;
        std::condition_variable done_cv;
    };

    void workerLoop(size_t lane);
    static void drain(Batch &b, size_t lane);

    std::mutex mutex;                 ///< guards `open` and `stopping`
    std::condition_variable work_cv;
    std::vector<std::shared_ptr<Batch>> open; ///< batches with work left
    bool stopping = false;
    std::vector<std::thread> workers_;
};

} // namespace dvp

#endif // DVP_UTIL_THREAD_POOL_HH

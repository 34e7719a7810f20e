/**
 * @file
 * Span tracer: timestamped begin/end records of engine lifecycle
 * phases (query plan / morsel scatter / scan / merge, change
 * detection, partitioner run, repartition swap, quiesce) with
 * parent/child nesting, collected into a bounded in-memory ring
 * buffer.
 *
 * Model: a Span is an RAII guard; construction stamps the start on a
 * monotonic clock and pushes the span onto a thread-local stack (the
 * enclosing span, if any, becomes the parent), destruction stamps the
 * end and appends one fixed-size SpanRecord to the ring.  The ring
 * overwrites its oldest entry when full and counts what it dropped, so
 * a week-long adaptive run costs bounded memory and the *latest*
 * behaviour is always inspectable.
 *
 * Tracing is off by default: a disabled tracer costs one relaxed
 * atomic load per span site.  Enable with Tracer::global().enable(),
 * the --trace PATH bench/example flag, or the DVP_TRACE env var.
 *
 * Names and details are truncated into fixed char arrays: recording a
 * span never allocates, so it is safe inside the executor's scan
 * phases and the adaptive engine's background repartition thread.
 */

#ifndef DVP_OBS_TRACE_HH
#define DVP_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace dvp::obs
{

/** One completed span, as stored in the ring buffer. */
struct SpanRecord
{
    static constexpr size_t kNameLen = 24;
    static constexpr size_t kDetailLen = 40;

    uint64_t id = 0;       ///< 1-based, process-unique, increasing
    uint64_t parent = 0;   ///< enclosing span id; 0 = root
    uint64_t startNs = 0;  ///< monotonic ns since process start
    uint64_t endNs = 0;
    uint32_t thread = 0;   ///< small per-thread index (first-span order)
    char name[kNameLen] = {};
    char detail[kDetailLen] = {};

    uint64_t durationNs() const { return endNs - startNs; }
};

/** The process-wide span collector. */
class Tracer
{
  public:
    static constexpr size_t kDefaultCapacity = 16384;

    /**
     * Start recording (idempotent).  @p capacity bounds the ring; an
     * in-use ring is resized only when the tracer was disabled.
     */
    void enable(size_t capacity = kDefaultCapacity);

    /** Stop recording; the ring's contents stay readable. */
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Drop every record and reset the id/thread counters. */
    void clear();

    /** Completed spans, oldest first (at most the ring capacity). */
    std::vector<SpanRecord> snapshot() const;

    /** Spans overwritten because the ring was full. */
    uint64_t dropped() const;

    /** Total spans ever recorded (including dropped). */
    uint64_t recorded() const;

    /** Monotonic nanoseconds on the tracer's clock. */
    static uint64_t nowNs();

    static Tracer &global();

    // -- internals used by Span ---------------------------------------

    /** Current thread's innermost open span id (0 = none). */
    static uint64_t currentSpan();

    /** Open a span; returns its id and pushes it on the thread stack. */
    uint64_t beginSpan();

    /** Close span @p id: pop the stack and commit the record. */
    void endSpan(uint64_t id, uint64_t parent, uint64_t startNs,
                 const char *name, const char *detail);

  private:
    uint32_t threadIndex();

    mutable std::mutex mu;        ///< guards ring/head/total
    std::vector<SpanRecord> ring; ///< bounded storage
    size_t head = 0;              ///< next write position
    uint64_t total = 0;           ///< records ever committed
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> next_id{1};
    std::atomic<uint32_t> next_thread{1};
};

/**
 * RAII span guard.  Does nothing (one relaxed load) when tracing is
 * disabled.  @p detail may be null.
 */
class Span
{
  public:
    Span(const char *name, const char *detail = nullptr)
    {
        Tracer &t = Tracer::global();
        if (!t.enabled())
            return;
        name_ = name;
        std::strncpy(detail_, detail == nullptr ? "" : detail,
                     sizeof(detail_) - 1);
        parent_ = Tracer::currentSpan();
        id_ = t.beginSpan();
        start_ = Tracer::nowNs();
    }

    ~Span()
    {
        if (id_ == 0)
            return;
        Tracer::global().endSpan(id_, parent_, start_, name_, detail_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    bool active() const { return id_ != 0; }

  private:
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t start_ = 0;
    const char *name_ = "";
    char detail_[SpanRecord::kDetailLen] = {};
};

} // namespace dvp::obs

/** Span site: a scoped span named @p var. */
#define DVP_TRACE_SPAN(var, name, detail)                               \
    ::dvp::obs::Span var(name, detail)

#endif // DVP_OBS_TRACE_HH

/**
 * @file
 * Exporters for the observability layer:
 *
 *  - Prometheus text exposition of a Registry (sorted, label-aware,
 *    histogram buckets in the `le` convention) — deterministic for a
 *    deterministic metric state, so fixed-seed serial runs diff
 *    byte-for-byte;
 *  - an NDJSON dump of trace spans (one self-describing record per
 *    line, same spirit as the bench --json records).
 *
 * DumpScope ties the exporters to the CLI surface: construct it with
 * the --metrics / --trace paths and the files are written when the
 * scope dies (i.e. at program exit of a bench or example).  scanArgs()
 * strips those two flags from any argv for binaries that do their own
 * argument handling.
 */

#ifndef DVP_OBS_EXPORT_HH
#define DVP_OBS_EXPORT_HH

#include <functional>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dvp::obs
{

/** Keep/drop predicate over full metric names; default keeps all. */
using MetricFilter = std::function<bool(const std::string &)>;

/**
 * Render @p reg in the Prometheus text exposition format.  Metrics are
 * emitted in sorted name order (counters, then gauges, then
 * histograms) with one # TYPE line per base name; histograms emit
 * cumulative _bucket{le="..."} series plus _sum, _count and a _max
 * gauge.  Histogram sample unit is whatever was observed (nanoseconds
 * for the engine's *_ns metrics).
 *
 * @p keep drops metrics it returns false for — used by the
 * determinism test to exclude wall-clock histograms, whose bucket
 * placement legitimately varies run to run.
 */
std::string exportPrometheus(const Registry &reg,
                             const MetricFilter &keep = {});

/** One NDJSON record per completed span, oldest first. */
std::string exportTraceNdjson(const Tracer &tracer);

/**
 * RAII dump of the global registry/tracer.
 *
 * Construction enables the global tracer when @p trace_path is
 * non-empty (also honouring a pre-enabled tracer); destruction writes
 * the Prometheus text dump to @p metrics_path and the span NDJSON to
 * @p trace_path (empty path = skip).  Failures to open are fatal()
 * up front, not discovered after the run.
 */
class DumpScope
{
  public:
    DumpScope() = default;
    DumpScope(std::string metrics_path, std::string trace_path);
    ~DumpScope();

    DumpScope(DumpScope &&other) noexcept;
    DumpScope &operator=(DumpScope &&other) noexcept;
    DumpScope(const DumpScope &) = delete;
    DumpScope &operator=(const DumpScope &) = delete;

  private:
    void dump();

    std::string metrics_path_;
    std::string trace_path_;
    bool armed_ = false;
};

/**
 * Strip `--metrics PATH` and `--trace PATH` from @p argv (mutating
 * argc/argv in place) and return the corresponding DumpScope.  Also
 * honours the DVP_TRACE=1 environment variable for binaries run under
 * a harness that cannot pass flags.  For binaries with bespoke
 * argument parsing (examples, bench_micro).
 */
DumpScope scanArgs(int &argc, char **argv);

} // namespace dvp::obs

#endif // DVP_OBS_EXPORT_HH

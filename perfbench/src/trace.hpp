/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The benchmark opens a span around each call it makes into a layer
 * of the program (mapping, core, explore, serve, obs).  A span
 * records its name, start, end, its parent span and the request it
 * belongs to; all spans of one benchmark op or serve request share
 * that request id.  Spans stay in memory until the run ends, when
 * they are written out as Chrome-trace JSON and folded into a
 * per-layer summary.  A disabled recorder records nothing, so the
 * untraced runs pay one branch per span.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded interval (times in microseconds since run start). */
struct Span
{
    std::string name;
    std::uint64_t id = 0;      ///< 1-based; index + 1 in the record.
    std::uint64_t parent = 0;  ///< Enclosing span id, 0 for a root.
    std::uint64_t request = 0; ///< Shared by one op's spans.
    double startUs = 0.0;
    double endUs = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Opens a child of the innermost open span; returns its id
     *  (0 when disabled). */
    std::uint64_t open(const char *name, std::uint64_t request);

    /** Closes span @p id, which must be the innermost open one. */
    void close(std::uint64_t id);

    /** RAII span; closes on scope exit. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::uint64_t request)
            : tracer_(tracer), id_(tracer.open(name, request))
        {}
        ~Scope() { tracer_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        std::uint64_t id_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON ("X" slices, one pid/tid). */
    std::string chromeJson() const;

  private:
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> openStack_;
};

/**
 * Self time of every span, in record order: its duration minus the
 * part of its interval that its direct children cover.  Overlapping
 * children are merged first, and child time outside the parent's
 * interval is ignored, so self time is never negative and never
 * subtracts an interval twice.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Per-name totals over a span record. */
struct LayerTotals
{
    std::string name;
    std::size_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};

/** Totals per span name, sorted by name. */
std::vector<LayerTotals> layerTotals(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP

/**
 * @file
 * Design-space exploration engine (paper Sec. VI: "exhaustive
 * exploration ... all possible combinations of data, pipeline, and
 * tensor parallelism in intra-node and inter-node accelerators").
 *
 * The Explorer evaluates a set of (mapping, batch) points with one
 * AmpedModel, skips points that are infeasible (batch too small for
 * the mapping, pipeline deeper than the layer count), ranks the
 * rest, and renders report tables.
 *
 * Sweeps run in parallel on the shared ThreadPool through one
 * explore::SweepKernel (explore/sweep_kernel.hpp): the (mapping x
 * job) grid is enumerated up front, each point is evaluated into a
 * slot indexed by its grid position, and the slots are reduced in
 * grid order afterwards — so entry order, skip counters, tables and
 * CSVs are byte-identical to a serial run at any thread count.
 * AmpedModel::evaluate and MemoryModel::fits are const and touch no
 * shared mutable state (audited: the only mutable member in the
 * library, hw::EfficiencyFitter::lastResidual_, is not reachable
 * from an evaluation), which is what makes the concurrent
 * evaluation of one shared model instance safe.
 */

#ifndef AMPED_EXPLORE_EXPLORER_HPP
#define AMPED_EXPLORE_EXPLORER_HPP

#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "core/amped_model.hpp"
#include "core/memory_model.hpp"

namespace amped {
namespace explore {

/** One evaluated design point. */
struct SweepEntry
{
    mapping::ParallelismConfig mapping; ///< The parallelism choice.
    double batchSize = 0.0;             ///< Global batch size.
    core::EvaluationResult result;      ///< AMPeD prediction.
};

/** Outcome of a sweep: feasible points plus skip counts. */
struct SweepResult
{
    std::vector<SweepEntry> entries; ///< Feasible, evaluated points.
    std::size_t skipped = 0;         ///< Infeasible points dropped.
    std::size_t memorySkipped = 0;   ///< Dropped by the memory check.

    /**
     * Points that degraded instead of aborting the sweep: the model
     * threw a non-UserError exception or produced a non-finite total
     * time.  Each such point stays in entries with every numeric
     * result NaN-pinned (the golden layer's marker for "no value
     * here") and one warning logged, so a single broken point cannot
     * kill a design-space exploration.
     */
    std::size_t failed = 0;

    /**
     * How the sweep ended.  Completed means the whole grid was
     * evaluated.  Cancelled / DeadlineExceeded mean the sweep stopped
     * at a block checkpoint: entries / skipped / memorySkipped /
     * failed then describe exactly the first visitedPoints grid
     * points — bit-identical to the same prefix of a full run at any
     * thread count (the determinism contract in common/cancel.hpp).
     */
    RunStatus status = RunStatus::Completed;

    /** Grid points actually evaluated (== the grid size when
     *  Completed). */
    std::size_t visitedPoints = 0;

    /** Grid points never visited because the sweep stopped; always
     *  visitedPoints + cancelledUnvisited == grid size. */
    std::size_t cancelledUnvisited = 0;
};

/**
 * A ranking entry: a key and the row or grid index it stands for.
 * operator< orders by key, then index; with no NaN key that is a
 * strict total order, so whatever ranks by it (Explorer::sortByTime,
 * the optimizer's visit) yields one sequence at any worker count.
 */
struct RankedIndex
{
    double key = 0.0;
    std::size_t index = 0;

    bool operator<(const RankedIndex &o) const
    {
        return key != o.key ? key < o.key : index < o.index;
    }
};

/** Explorer::sweepTop's answer: a sweep ranked and cut to its best
 *  entries. */
struct RankedSweep
{
    /** The sweep.  Its entries are the first `top` of the ranking;
     *  its counters and status cover every visited grid point. */
    SweepResult sweep;

    /** Entries in the whole ranking, before the cut. */
    std::size_t ranked = 0;

    /** True when the cut dropped entries. */
    bool cut() const { return ranked > sweep.entries.size(); }
};

/**
 * Evaluates mapping/batch sweeps against one model instance.
 */
class Explorer
{
  public:
    /** @param model The evaluator to drive (copied; it is cheap). */
    explicit Explorer(core::AmpedModel model);

    /**
     * Evaluates every mapping at every batch size.  Infeasible
     * combinations are counted in SweepResult::skipped instead of
     * aborting the sweep.
     *
     * @param mappings Candidate mappings (each must fit the system).
     * @param batch_sizes Global batch sizes to cross with them.
     * @param job_template Job whose batchSize is overwritten per
     *        point (token budget and microbatching carry over).
     */
    SweepResult sweep(const std::vector<mapping::ParallelismConfig>
                          &mappings,
                      const std::vector<double> &batch_sizes,
                      const core::TrainingJob &job_template) const;

    /**
     * Evaluates every mapping under every fully-specified job (the
     * general grid: jobs may differ in batch size, microbatching
     * overrides, token budget...).  sweep() is the common case of
     * jobs that differ only in batch size; Case Study II uses this
     * directly to tune the pipeline microbatch per mapping.
     */
    SweepResult
    sweepJobs(const std::vector<mapping::ParallelismConfig> &mappings,
              const std::vector<core::TrainingJob> &jobs) const;

    /**
     * Evaluates the full mapping space of the model's system (every
     * intra x inter factorization), capped at a pipeline degree of
     * the model's layer count, via sweep().  Nothing is cached:
     * every call evaluates the grid (`amped serve` caches whole
     * answers in its serve::SweepCacheLru).
     */
    SweepResult sweepAll(const std::vector<double> &batch_sizes,
                         const core::TrainingJob &job_template) const;

    /**
     * The ranked answer to "which mappings are fastest": sweepAll,
     * ranked by sortByTime on this Explorer's threads(), and cut to
     * its first @p top entries.  A stopped sweep ranks the prefix it
     * visited.
     */
    RankedSweep sweepTop(const std::vector<double> &batch_sizes,
                         const core::TrainingJob &job_template,
                         std::size_t top) const;

    /**
     * Caps sweep parallelism.  0 (the default) uses AMPED_THREADS
     * or every hardware thread; 1 forces the serial path.  Results
     * are identical at any setting — this only trades wall clock.
     */
    void setThreads(unsigned threads) { threads_ = threads; }

    /** The configured parallelism cap (0 = automatic). */
    unsigned threads() const { return threads_; }

    /**
     * Installs a cancellation token observed by every subsequent
     * sweep: the grid is checkpointed between SoA blocks
     * (explore::kSweepBlockPoints points), and a stop produces a
     * deterministic prefix result (see SweepResult::status).  The
     * default inert token costs nothing and never stops anything.
     */
    void setCancelToken(CancelToken token)
    {
        token_ = std::move(token);
    }

    /** The installed cancellation token (inert by default). */
    const CancelToken &cancelToken() const { return token_; }

    /**
     * The entry with the lowest total training time, if any.
     * NaN-pinned (failed) entries rank last, so they are only
     * returned when nothing real was evaluated.
     */
    static std::optional<SweepEntry>
    best(const SweepResult &sweep_result);

    /**
     * Sorts entries ascending by total training time.  The order is
     * stable: entries with equal times (-0.0 equals +0.0) keep their
     * input order.  NaN-pinned entries rank as +infinity, so they go
     * last, in input order (interleaved by input position with any
     * +infinity times).
     *
     * Runs on the shared ThreadPool with one worker per 64 Ki
     * entries, capped at @p max_workers, so a ranking below 64 Ki
     * entries runs inline on the calling thread.  The ranking is the
     * unique order of (time, input index), so the result is byte-
     * identical at any worker count.  Extra memory is 16 bytes per
     * entry plus one entry per 256; each entry is moved about once.
     * Must not be called from inside a ThreadPool task (parallelFor
     * does not nest).
     *
     * @param max_workers Parallelism cap (0 = AMPED_THREADS or every
     *        hardware thread); callers pass their Explorer's
     *        threads().
     */
    static void sortByTime(std::vector<SweepEntry> &entries,
                           unsigned max_workers = 0);

    /** The underlying model. */
    const core::AmpedModel &model() const { return model_; }

    /**
     * Enables per-accelerator memory screening: sweep points whose
     * footprint exceeds the device capacity are counted in
     * SweepResult::memorySkipped instead of being evaluated
     * (paper future work; DESIGN.md Sec. 7).
     */
    void setMemoryModel(core::MemoryModel memory_model);

    /** Disables memory screening. */
    void clearMemoryModel() { memoryModel_.reset(); }

  private:
    core::AmpedModel model_;
    std::optional<core::MemoryModel> memoryModel_;
    unsigned threads_ = 0;
    CancelToken token_;
};

/**
 * Renders a sweep as an aligned text table (mapping, batch,
 * microbatch size, efficiency, time/batch, training days,
 * TFLOP/s/GPU).
 */
std::string sweepTable(const std::vector<SweepEntry> &entries);

/**
 * Renders a per-phase breakdown table for one result (Fig. 3 style),
 * with each phase's share of the total.
 */
std::string breakdownTable(const core::EvaluationResult &result);

/**
 * Renders a sweep as CSV with machine-friendly numeric columns
 * (mapping string, degrees, batch, microbatch, efficiency, seconds
 * per batch, total seconds, TFLOP/s/GPU, per-phase seconds).
 */
std::string sweepCsv(const std::vector<SweepEntry> &entries);

} // namespace explore
} // namespace amped

#endif // AMPED_EXPLORE_EXPLORER_HPP

/**
 * @file
 * Branch-and-bound search for the fastest feasible parallelization.
 *
 * Explorer::sweepAll answers "rank every mapping" by evaluating the
 * whole (mapping x batch) grid.  The Optimizer answers the question
 * the paper actually poses — "which mapping is fastest?" — without
 * paying for the full grid:
 *
 *  1. Feasibility screen.  Every grid point goes once through
 *     SweepKernel::evaluatePoint, the kernel's one per-point path, in
 *     parallel: points whose mapping, job or microbatching fail
 *     validation are skipped outright, and (with a memory model)
 *     points whose footprint exceeds the device capacity are pruned;
 *     the kernel checks the footprint once per (degree shape, job)
 *     cell, not once per point.
 *  2. Exact keys.  Each survivor is keyed by
 *     SweepKernel::Outcome::rankKey: its total training time, bit
 *     for bit the totalTime that sweepAll and evaluate() report
 *     (all three assemble through core::AmpedModel::assemble), or
 *     +infinity for a point that will NaN-pin.  The per-point work is
 *     O(1): table and term-cache lookups, three closed forms and the
 *     assembly.
 *  3. Best-first waves.  Surviving points are visited in ascending
 *     key order in fixed-size waves: a point whose key exceeds the
 *     current k-th best key is pruned; the rest are evaluated through
 *     the same kernel, bit-identically to Explorer::sweepAll, for
 *     their full results.  Wave boundaries are independent of the
 *     thread count, so results AND counters are deterministic.  The
 *     screen keeps each mapping's survivors in a min-heap of its
 *     own, and the visit merges those heaps lazily by their heads,
 *     so no array the size of the grid is built or ranked.  The
 *     first prune counts every survivor not yet visited as pruned:
 *     the threshold moves only at a wave flush, so every later point
 *     would prune too.
 *
 * The returned top-k is bit-pattern-identical to sorting the full
 * exhaustive sweep by (total time, grid index) and truncating —
 * tests/test_explore_optimizer.cpp holds the two paths to the same
 * bytes over randomized grids, and the optimizer_case_study golden
 * pins the 1,008,000-point case-study grid.
 *
 * Optionally the search is heterogeneity-aware: given a stage
 * hardware list, the winning mapping's pipeline is re-partitioned
 * with core::HeterogeneousPipelineModel::balanceLayers so mixed
 * clusters get per-stage layer counts alongside the homogeneous
 * ranking.
 */

#ifndef AMPED_EXPLORE_OPTIMIZER_HPP
#define AMPED_EXPLORE_OPTIMIZER_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/amped_model.hpp"
#include "core/heterogeneous.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"

namespace amped {
namespace explore {

/** What to search and how many winners to keep. */
struct OptimizerRequest
{
    /** Global batch sizes to cross with every mapping. */
    std::vector<double> batchSizes;

    /**
     * Job whose batchSize is overwritten per point (token budget and
     * microbatching carry over), exactly as in Explorer::sweep.
     */
    core::TrainingJob jobTemplate;

    /** How many best strategies to return (>= 1). */
    std::size_t topK = 10;

    /**
     * Expert-parallel degree N_EP.  The paper spreads experts over
     * all nodes (Sec. IV-D), so EP is not a mapping dimension; the
     * knob is validated against the model instead: values > 1
     * require a mixture-of-experts model and must divide the expert
     * count, otherwise the request is rejected with a UserError.
     */
    std::int64_t expertParallel = 1;

    /**
     * Stage hardware for the heterogeneity-aware refinement; empty
     * (the default) skips it.  When set, the winning strategy's
     * pipeline is re-balanced over these stages (tensor width taken
     * from the winner) and the heterogeneous prediction is attached
     * to the result.
     */
    std::vector<core::HeterogeneousStage> heterogeneousStages;
};

/**
 * Search accounting.  Every grid point lands in exactly one of the
 * five disposition buckets:
 *
 *   points = prunedByMemory + prunedByBound + skippedInfeasible
 *          + evaluated + cancelledUnvisited
 *
 * (cancelledUnvisited is zero on a Completed search) and the
 * evaluated bucket splits by exact outcome:
 *
 *   evaluated = feasible + infeasible + overMemory + failed
 *
 * The same totals are published to the metrics registry under
 * `explore.optimize.*`.
 */
struct OptimizerCounters
{
    std::size_t points = 0;     ///< Grid size (mappings x jobs).
    std::size_t cells = 0;      ///< (dp, pp)-class x job cells.
    std::size_t evaluated = 0;  ///< Reached the exact batch kernel.
    std::size_t prunedByMemory = 0; ///< Memory screen said no.
    std::size_t prunedByBound = 0;  ///< Key beat the k-th best.
    std::size_t skippedInfeasible = 0; ///< Provably invalid points.
    std::size_t feasible = 0;   ///< Evaluated, got a result.
    std::size_t infeasible = 0; ///< Evaluated, UserError.
    std::size_t overMemory = 0; ///< Evaluated, memory check failed.
    std::size_t failed = 0;     ///< Evaluated, NaN-pinned.
    /** Points never dispositioned because the search stopped. */
    std::size_t cancelledUnvisited = 0;
};

/** The heterogeneity-aware refinement of the winning strategy. */
struct HeterogeneousPlan
{
    /** Balanced stages (numLayers filled in, tp from the winner). */
    std::vector<core::HeterogeneousStage> stages;

    /** Prediction for one pipeline replica on those stages. */
    core::HeterogeneousResult result;
};

/** Outcome of one optimize() call. */
struct OptimizerResult
{
    /**
     * The k best strategies, ascending by total training time (ties
     * by grid position) — bit-identical to truncating the sorted
     * exhaustive sweep.  Shorter than requested when fewer points
     * are feasible; empty when nothing is.
     */
    std::vector<SweepEntry> topK;

    OptimizerCounters counters;

    /**
     * How the search ended.  Completed means every grid point was
     * dispositioned and topK is the exact answer.  Cancelled /
     * DeadlineExceeded mean the search stopped at a wave checkpoint:
     * topK is then the deterministic best-so-far over the evaluated
     * prefix — an explicit *incomplete* ranking, never a silently
     * wrong one (counters.cancelledUnvisited says how much of the
     * grid was never considered).  Wave boundaries are thread-count
     * independent, so a tripped search yields identical partial
     * results at every thread count.
     */
    RunStatus status = RunStatus::Completed;

    /** Set when the request carried heterogeneous stages, the search
     *  Completed, and it produced a finite winner.  (A best-so-far
     *  winner from a stopped search is not refined: it may not be
     *  the real winner.) */
    std::optional<HeterogeneousPlan> heterogeneous;
};

/**
 * Feasibility-pruned branch-and-bound strategy search over one
 * model.  Construction mirrors Explorer; optimize() mirrors
 * sweepAll's enumeration and optimizeOver() accepts an explicit
 * mapping list (the property tests drive both paths against each
 * other).
 */
class Optimizer
{
  public:
    /** @param model The evaluator to drive (copied; it is cheap). */
    explicit Optimizer(core::AmpedModel model);

    /**
     * Searches the full mapping space of the model's system (every
     * intra x inter factorization, pipeline capped at the layer
     * count) — the same enumeration Explorer::sweepAll sweeps.
     */
    OptimizerResult optimize(const OptimizerRequest &request) const;

    /** Searches an explicit candidate mapping list. */
    OptimizerResult
    optimizeOver(const std::vector<mapping::ParallelismConfig> &mappings,
                 const OptimizerRequest &request) const;

    /**
     * Caps search parallelism.  0 (the default) uses AMPED_THREADS
     * or every hardware thread.  Results and counters are identical
     * at any setting — this only trades wall clock.
     */
    void setThreads(unsigned threads) { threads_ = threads; }

    /** The configured parallelism cap (0 = automatic). */
    unsigned threads() const { return threads_; }

    /**
     * Installs a cancellation token observed by every subsequent
     * search: the cache prime and the feasibility screen abandon at
     * chunk boundaries, and the wave loop checkpoints once per
     * evaluation wave — see OptimizerResult::status for what a stop
     * returns.  The default inert token costs nothing.
     */
    void setCancelToken(CancelToken token)
    {
        token_ = std::move(token);
    }

    /** The installed cancellation token (inert by default). */
    const CancelToken &cancelToken() const { return token_; }

    /**
     * Enables the memory screen: points whose footprint exceeds the
     * device capacity are pruned before evaluation and counted in
     * OptimizerCounters::prunedByMemory.
     */
    void setMemoryModel(core::MemoryModel memory_model);

    /** Disables memory screening. */
    void clearMemoryModel() { memoryModel_.reset(); }

    /** The underlying model. */
    const core::AmpedModel &model() const { return model_; }

  private:
    core::AmpedModel model_;
    std::optional<core::MemoryModel> memoryModel_;
    unsigned threads_ = 0;
    CancelToken token_;
};

} // namespace explore
} // namespace amped

#endif // AMPED_EXPLORE_OPTIMIZER_HPP

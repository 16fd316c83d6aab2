/**
 * @file
 * Batched structure-of-arrays sweep evaluation.
 *
 * The scalar sweep path evaluates each (mapping, job) grid point by
 * calling core::AmpedModel::evaluate — per point that means four
 * per-layer loops and one std::vector allocation per layer.  The
 * batched engine restructures the same computation around the grid:
 *
 *  1. Enumerate the grid's distinct sub-problems: per-mapping
 *     constants (worker counts, parallelism degrees, grad-comm
 *     class), per-job constants (batch size, batch count), and the
 *     (job x (dp, pp)-class) table of microbatch size, microbatch
 *     count, efficiency and per-replica batch.  Its rows are
 *     independent, so they are filled in parallel over jobs; their
 *     term keys are then registered in one serial pass in row order.
 *  2. Register every distinct per-layer sum with a
 *     core::SweepTermCache and prime it once, in parallel.
 *  3. Evaluate the grid in fixed-size blocks of contiguous raw-double
 *     columns (structure of arrays): each worker fills the output
 *     columns for a chunk of points with O(1) work per point —
 *     cached-sum lookups plus the cheap closed-form per-point terms.
 *     Quantity types are unwrapped at the column boundary and
 *     re-wrapped at reduction, exactly as the scalar path unwraps
 *     them into core::Breakdown.
 *  4. Reduce each block serially in grid order into a SweepResult.
 *
 * The result is byte-identical to the scalar path — entry order and
 * values, skip / memory-skip / failed counters, NaN pinning, and the
 * grid-ordered warning lines — at every thread count (see the
 * bit-exactness contract in core/batch_terms.hpp).  The engine exists
 * purely for throughput: the goldens and the differential property
 * tests (tests/test_explore_batch.cpp) hold both paths to the same
 * bytes.
 */

#ifndef AMPED_EXPLORE_BATCH_HPP
#define AMPED_EXPLORE_BATCH_HPP

#include <cstddef>
#include <vector>

#include "common/cancel.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"

namespace amped {
namespace explore {

/**
 * Points per SoA block: caps column memory at a few megabytes, and —
 * because both sweep engines call CancelToken::checkpoint() exactly
 * once per block — defines the cancellation granularity: a stopped
 * sweep's result is always a whole number of blocks.
 */
inline constexpr std::size_t kSweepBlockPoints = std::size_t{1} << 16;

/**
 * Evaluates the (mapping x job) grid with the batched SoA engine.
 *
 * Semantics are identical to the scalar loop in Explorer::sweepJobs
 * (this function is its drop-in evaluation core): every point is
 * classified as feasible / infeasible / over-memory / failed exactly
 * as the scalar path classifies it, failed points are NaN-pinned with
 * the same warning line, and entries come out in grid order.
 *
 * Cancellable: @p token is checkpointed between blocks; a stop
 * returns the deterministic block-prefix described by
 * SweepResult::status / visitedPoints / cancelledUnvisited.
 *
 * @param model The evaluator (const; never mutated).
 * @param memory_model Optional memory screen (nullptr = disabled).
 * @param mappings Grid rows (mapping-major order).
 * @param jobs Grid columns.
 * @param max_workers Parallelism cap (0 = whole shared pool).
 * @param token Cooperative stop request (inert by default).
 */
SweepResult
sweepJobsBatched(const core::AmpedModel &model,
                 const core::MemoryModel *memory_model,
                 const std::vector<mapping::ParallelismConfig> &mappings,
                 const std::vector<core::TrainingJob> &jobs,
                 unsigned max_workers, const CancelToken &token = {});

/**
 * A result with every numeric field pinned to NaN — the golden
 * layer's marker for "this point has no value".  Shared by the scalar
 * and batched engines so both degrade failed points identically.
 */
core::EvaluationResult nanPinnedResult();

} // namespace explore
} // namespace amped

#endif // AMPED_EXPLORE_BATCH_HPP

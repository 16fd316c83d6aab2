/**
 * @file
 * The sweep engine: one evaluation kernel behind every Explorer sweep
 * and the branch-and-bound strategy optimizer.
 *
 * The scalar path, core::AmpedModel::evaluate, costs four per-layer
 * loops and one std::vector allocation per layer at every point.  A
 * SweepKernel restructures the same computation around one
 * (mappings x jobs) grid:
 *
 *  1. Enumerate the grid's distinct sub-problems: per-mapping facts
 *     (MappingInfo: worker counts, parallelism degrees, grad-comm
 *     class), per-job facts (JobInfo: batch size, batch count), the
 *     (job x (dp, pp)-class) table of microbatching facts (JcEntry:
 *     microbatch size, microbatch count, efficiency, per-replica
 *     batch) and, with a memory model, the (shape x job) table of
 *     memory-fit outcomes (MemoryCell).  Two mappings share a class
 *     when they agree on the total data-parallel and pipeline
 *     degrees; within a class every compute term of the additive
 *     model is constant and only the communication terms vary with
 *     the intra/inter split.  Two mappings share a shape
 *     (core::DegreeShape) when they agree on every degree the
 *     footprint reads, so one fit check per (shape, job) serves every
 *     point of both; a shape fixes (dp, pp), so its microbatch size
 *     is its class's.  Both tables' rows are independent, so they are
 *     filled in parallel over jobs.  A job's forward and
 *     weight-update keys vary with the class only through the
 *     efficiency, and its MoE key only through the per-replica batch,
 *     so each job collects its distinct values of both while it
 *     fills its rows.
 *  2. Register each job's distinct keys with a core::SweepTermCache
 *     in one serial pass, slot-major and job-minor (see the class
 *     comment), write the term ids into the rows in parallel, and
 *     prime the cache once, in parallel.
 *  3. Evaluate points in fixed-size blocks of contiguous raw-double
 *     columns (structure of arrays): each worker fills the output
 *     columns for a chunk of points with O(1) work per point —
 *     cached-sum lookups plus the cheap closed-form per-point terms.
 *     Quantity types are unwrapped at the column boundary and
 *     re-wrapped at reduction, exactly as the scalar path unwraps
 *     them into core::Breakdown.  The per-point evaluator classifies
 *     a point as feasible / infeasible / over-memory / failed the same
 *     way whether it is reached by the full-grid block sweep
 *     (sweepGrid) or by an index list (evaluatePoints).
 *  4. sweepGrid reduces each block serially in grid order into a
 *     SweepResult.
 *
 * The result is byte-identical to calling AmpedModel::evaluate point
 * by point in mapping-major order — entry order and values, skip /
 * memory-skip / failed counters, NaN pinning, and the grid-ordered
 * warning lines — at every thread count (see the bit-exactness
 * contract in core/batch_terms.hpp).  The kernel exists purely for
 * throughput: the goldens and the property tests in
 * tests/test_explore_batch.cpp hold it to the bytes of a plain
 * per-point loop kept in the tests (tests/reference_sweep.hpp).
 *
 * The class tables, the memory table and the term cache are
 * deliberately exposed read-only: the optimizer's screen classifies
 * points from exactly these values and assembles its admissible
 * lower bounds from them (DESIGN.md "Branch-and-bound over the
 * additive model"), so any change to the evaluation order here is a
 * change to the screen's and the bound's contract as well.
 */

#ifndef AMPED_EXPLORE_SWEEP_KERNEL_HPP
#define AMPED_EXPLORE_SWEEP_KERNEL_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_terms.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"

namespace amped {
namespace explore {

/**
 * Points per SoA block: caps column memory at a few megabytes, and —
 * because sweepGrid calls CancelToken::checkpoint() exactly once per
 * block — defines the cancellation granularity: a stopped sweep's
 * result is always a whole number of blocks.
 */
inline constexpr std::size_t kSweepBlockPoints = std::size_t{1} << 16;

/**
 * A result with every numeric field pinned to NaN — the golden
 * layer's marker for "this point has no value".  Failed points are
 * degraded to it.
 */
core::EvaluationResult nanPinnedResult();

/** How one grid point was classified. */
enum class PointStatus : unsigned char
{
    infeasible,
    overMemory,
    feasible,
    failedPoint
};

/** How a pre-computed sub-step ended (0 = fine). */
enum FailKind : unsigned char
{
    kOk = 0,
    kUserError = 1, ///< Scalar path throws UserError here.
    kError = 2      ///< Scalar path throws another std::exception.
};

/** MappingInfo::shapeIdx of a mapping that has no memory shape. */
inline constexpr std::uint32_t kNoShape = ~std::uint32_t{0};

/** Grid-constant facts about one mapping. */
struct MappingInfo
{
    FailKind kind = kOk;  ///< validateFor(system) outcome.
    std::string message;  ///< what() when kind == kError.
    std::uint32_t classIdx = 0; ///< (dp, pp) class index.
    /**
     * Memory-shape index, in first-seen order; kNoShape without a
     * memory model or when validate() throws (the fit check's
     * UserError: such a mapping's points are infeasible).
     */
    std::uint32_t shapeIdx = kNoShape;
    double workers = 0.0; ///< double(totalWorkers()).
    double ppD = 0.0;     ///< double(pp()).
    double stageOverlap = 0.0; ///< 1.0 / double(pp()).
    std::int64_t pp = 1;
    std::int64_t tpIntra = 1;
    std::int64_t tpInter = 1;
    std::int64_t ppIntra = 1;
    std::int64_t ppInter = 1;
    std::size_t gradId = 0;
};

/** Grid-constant facts about one job. */
struct JobInfo
{
    FailKind validKind = kOk; ///< job.validate() outcome.
    std::string validMessage;
    FailKind nbKind = kOk; ///< job.numBatches(seq) outcome.
    std::string nbMessage;
    double batch = 0.0;
    double numBatches = 0.0;
    std::size_t flopsId = 0;
};

/**
 * Per-(job x (dp, pp)-class) microbatching facts.  The microbatch
 * size, microbatch count and per-replica batch depend on the mapping
 * only through dp() and pp(), so one row serves every mapping in the
 * class.  A row carries no text: a kError failure's what() lives in
 * the kernel's message table, at index messageId.
 */
struct JcEntry
{
    FailKind ubKind = kOk; ///< microbatchSize outcome.
    /**
     * First failure of the remaining pre-term steps, recorded in
     * the scalar path's order: numMicrobatches, then efficiency.
     * Set only when ubKind is kOk.
     */
    FailKind preKind = kOk;
    /** Message-table index of the row's kError failure, if any. */
    std::uint32_t messageId = 0;
    double ub = 0.0;
    double nub = 0.0;
    double eff = 0.0;
    double replicaBatch = 0.0;
    /** Term-cache ids, set when both kinds are kOk. */
    std::size_t fwdId = 0;
    std::size_t updId = 0;
    std::size_t moeId = 0;
};

/**
 * The memory screen's outcome for one (shape x job) cell:
 * core::MemoryModel::fits for the shape, the job's batch and the
 * shape's class's microbatch size.  Set only where that microbatch
 * size exists (the class row's ubKind is kOk); the per-point
 * evaluator and the optimizer's screen read it only there.
 */
struct MemoryCell
{
    FailKind kind = kOk; ///< fits() outcome; kUserError = infeasible.
    bool fits = false;   ///< The verdict, when kind is kOk.
    /** Message-table index of a kError failure's what(). */
    std::uint32_t messageId = 0;
};

/** SoA output columns for one block of points (sweep_kernel.cpp). */
struct BlockColumns;

/**
 * One grid's evaluation state: constant tables, primed term cache
 * and the exact per-point evaluator.  Construction fills the
 * (job x class) table, and with a memory model the (shape x job)
 * table, in parallel on the shared pool; each job collects its
 * distinct (efficiency, per-replica batch) keys in class order, and
 * its failure messages.  One serial pass then registers
 * the keys slot-major, job-minor: the first distinct key of every
 * job, then the second of every job, and so on.  That keeps a class's
 * term ids running along the job axis, the axis the block loop walks
 * fastest, so consecutive points read neighbouring cache entries
 * (DESIGN.md "The sweep kernel" has the measurement).  The ids
 * depend on nothing but the grid, so they are the same at any worker
 * count.  The cache is then primed in parallel; afterwards every
 * member function is const and thread-safe.
 *
 * The mapping and job vectors are held by reference and must outlive
 * the kernel (both callers — Explorer::sweepJobs and the Optimizer
 * — own them for the duration of the search).
 */
class SweepKernel
{
  public:
    /**
     * Builds the tables and primes the term cache for one grid.
     *
     * @param model The evaluator (const; never mutated).
     * @param memory_model Optional memory screen (nullptr = off).
     * @param mappings Grid rows (mapping-major order).
     * @param jobs Grid columns.
     * @param max_workers Parallelism cap for the table fill and the
     *        prime (0 = pool).
     * @param token Cooperative stop request, observed by the prime
     *        (see primeStatus()) and by every subsequent sweepGrid /
     *        evaluatePoints call.  Inert by default.
     */
    SweepKernel(const core::AmpedModel &model,
                const core::MemoryModel *memory_model,
                const std::vector<mapping::ParallelismConfig> &mappings,
                const std::vector<core::TrainingJob> &jobs,
                unsigned max_workers, CancelToken token = {});

    /**
     * How the construction-time cache prime ended.  Non-Completed
     * means the kernel must not evaluate points (term lookups would
     * hit unprimed entries); callers surface the status instead.
     */
    RunStatus primeStatus() const { return primeStatus_; }

    /** Outcome of evaluating one grid point exactly. */
    struct Outcome
    {
        PointStatus status = PointStatus::infeasible;
        std::string failure; ///< Set when status == failedPoint.
        /** Valid when feasible; NaN-pinned when failed. */
        core::EvaluationResult result;
    };

    /**
     * Evaluates the whole grid with the SoA block loop and reduces it
     * in grid order — the engine behind Explorer::sweepJobs (the
     * byte-identity contract is in the file comment).
     *
     * The construction token is checkpointed once before each block;
     * a stop returns the deterministic block-prefix (status /
     * visitedPoints / cancelledUnvisited set accordingly).
     */
    SweepResult sweepGrid(unsigned max_workers) const;

    /**
     * Evaluates an arbitrary list of grid indices (index = mapping
     * index * numJobs() + job index) and appends one Outcome per
     * index, in list order.  Evaluation runs on the shared pool;
     * results are deterministic at any worker count.
     *
     * Cancellable via the construction token (passive status() polls
     * only — the caller owns the checkpoint discipline): on a stop
     * the partially evaluated block is discarded, so outcomes grew by
     * a multiple of the block size, and the stop status is returned.
     */
    RunStatus evaluatePoints(const std::vector<std::size_t> &indices,
                             std::vector<Outcome> &outcomes,
                             unsigned max_workers) const;

    std::size_t numMappings() const { return mappings_.size(); }
    std::size_t numJobs() const { return jobs_.size(); }
    std::size_t numPoints() const
    {
        return mappings_.size() * jobs_.size();
    }

    /** Number of distinct (dp, pp) mapping classes. */
    std::size_t numClasses() const { return classMembers_.size(); }

    const MappingInfo &mappingInfo(std::size_t mapping_index) const
    {
        return mappingInfos_[mapping_index];
    }

    const JobInfo &jobInfo(std::size_t job_index) const
    {
        return jobInfos_[job_index];
    }

    const JcEntry &jcEntry(std::uint32_t class_index,
                           std::size_t job_index) const
    {
        return jc_[class_index * jobs_.size() + job_index];
    }

    /**
     * The memory screen's outcome for one grid point.  Meaningful
     * only with a memory model and where the point's class row has
     * ubKind kOk (see MemoryCell); a mapping with no shape reads as
     * a UserError.
     */
    const MemoryCell &memoryCell(std::size_t mapping_index,
                                 std::size_t job_index) const
    {
        static constexpr MemoryCell kNoShapeCell{kUserError};
        const std::uint32_t shape = mappingInfos_[mapping_index].shapeIdx;
        return shape == kNoShape
                   ? kNoShapeCell
                   : memory_[shape * jobs_.size() + job_index];
    }

    /** Mapping indices belonging to one class, ascending. */
    const std::vector<std::size_t> &
    classMembers(std::uint32_t class_index) const
    {
        return classMembers_[class_index];
    }

    const core::TrainingJob &jobAt(std::size_t job_index) const
    {
        return jobs_[job_index];
    }

    /** The primed term cache (bound-side probes live here). */
    const core::SweepTermCache &termCache() const { return cache_; }

    const core::AmpedModel &model() const { return model_; }

    /** The memory screen, or nullptr when screening is off. */
    const core::MemoryModel *memoryScreen() const
    {
        return memoryModel_;
    }

  private:
    /** The exact per-point evaluator (columns stay in the .cpp). */
    void evaluatePointInto(std::size_t index, std::size_t slot,
                           BlockColumns &cols) const;

    const core::AmpedModel &model_;
    const core::MemoryModel *memoryModel_;
    const std::vector<mapping::ParallelismConfig> &mappings_;
    const std::vector<core::TrainingJob> &jobs_;

    // Model-option scalars hoisted once.
    double layersD_ = 0.0;
    double seqD_ = 0.0;
    double bwdCompute_ = 0.0;
    double fb_ = 0.0;
    double ppMult_ = 0.0;
    double bubbleRatio_ = 0.0;

    CancelToken token_;
    RunStatus primeStatus_ = RunStatus::Completed;

    core::SweepTermCache cache_;
    std::vector<MappingInfo> mappingInfos_;
    std::vector<JobInfo> jobInfos_;
    std::vector<JcEntry> jc_;
    std::size_t numShapes_ = 0; ///< Distinct memory shapes.
    std::vector<MemoryCell> memory_; ///< (shape x job), job fastest.
    /** JcEntry / MemoryCell messageId -> what(). */
    std::vector<std::string> messages_;
    std::vector<std::vector<std::size_t>> classMembers_;
};

} // namespace explore
} // namespace amped

#endif // AMPED_EXPLORE_SWEEP_KERNEL_HPP

#include "optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "explore/sweep_kernel.hpp"
#include "mapping/parallelism.hpp"
#include "obs/metrics.hpp"

namespace amped {
namespace explore {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Wave sizing.  The prune threshold is refreshed only at wave
 * boundaries, and boundaries depend on nothing but the deterministic
 * visit order — so prune counters and results are identical at every
 * thread count.  Waves ramp geometrically from a small first wave
 * (points are visited best-bound-first, so a handful of evaluations
 * usually pins the k-th best time and everything after prunes) up to
 * a cap that keeps the batch kernel's parallelism fed when pruning
 * is not biting.
 */
constexpr std::size_t kFirstWavePoints = 16;
constexpr std::size_t kWaveGrowth = 4;
constexpr std::size_t kMaxWavePoints = 4096;

/** Relative safety margin absorbing floating-point reassociation
 *  between the bound's arithmetic and the batch kernel's. */
constexpr double kBoundMargin = 1e-9;

/** Where a screened grid point goes next. */
enum class Disposition : unsigned char
{
    needEval,  ///< Survives the screen; carries a lower bound.
    infeasible,///< Provably invalid: skipped without evaluation.
    overMemory ///< Memory screen said no: pruned without evaluation.
};

/** One ranked candidate (feasible or NaN-pinned) in the top-k heap. */
struct Candidate
{
    double key = 0.0; ///< totalTime with NaN mapped to +infinity.
    std::size_t gridIndex = 0;
    SweepEntry entry;
};

/** Ascending (key, gridIndex) — brute force's exact ranking. */
bool
ranksBefore(const Candidate &a, const Candidate &b)
{
    if (a.key != b.key)
        return a.key < b.key;
    return a.gridIndex < b.gridIndex;
}

/** Model-option scalars shared by the screen (names match the
 *  batch kernel's hoisted constants). */
struct BoundScalars
{
    double layersD = 0.0;
    double bwdCompute = 0.0;
    double fb = 0.0;
    double ppMult = 0.0;
    double bubbleRatio = 0.0;
};

/** One mapping's screen: its survivors and its skipped points. */
struct MappingScreen
{
    /** (bound, grid index) of each survivor; a min-heap once built. */
    std::vector<RankedIndex> heap;
    std::size_t skippedInfeasible = 0;
    std::size_t prunedByMemory = 0;
};

/** Heap order putting the smallest (bound, grid index) on top. */
bool
visitsAfter(const RankedIndex &a, const RankedIndex &b)
{
    return b < a;
}

/**
 * Classifies one grid point from the kernel's constant tables alone,
 * following AmpedModel::evaluate's exact step order (see
 * SweepKernel::evaluatePointInto), and assembles the admissible
 * lower bound for survivors.
 *
 * Failure mapping: a step the scalar path answers with UserError
 * proves the point infeasible (it can never enter the ranking); a
 * step that throws anything else means the point will NaN-pin, whose
 * ranking key is +infinity — so its bound IS +infinity and the
 * normal prune rule handles it.  The bound of a healthy point is its
 * exact additive total scaled down by kBoundMargin (admissibility
 * argument in DESIGN.md).
 */
Disposition
screenPoint(const SweepKernel &kernel, const BoundScalars &sc,
            std::size_t mapping_index, std::size_t job_index,
            double &bound)
{
    bound = kInf;
    const MappingInfo &mi = kernel.mappingInfo(mapping_index);
    const JobInfo &ji = kernel.jobInfo(job_index);
    const JcEntry &entry = kernel.jcEntry(mi.classIdx, job_index);
    const core::SweepTermCache &cache = kernel.termCache();
    using Status = core::SweepTermCache::LookupStatus;

    const bool screened = kernel.memoryScreen() != nullptr;
    if (screened) {
        if (entry.ubKind == kUserError)
            return Disposition::infeasible;
        if (entry.ubKind == kError)
            return Disposition::needEval;
        const MemoryCell &cell =
            kernel.memoryCell(mapping_index, job_index);
        if (cell.kind == kUserError)
            return Disposition::infeasible;
        if (cell.kind == kError)
            return Disposition::needEval;
        if (!cell.fits)
            return Disposition::overMemory;
    }
    if (mi.kind == kUserError || ji.validKind == kUserError)
        return Disposition::infeasible;
    if (mi.kind == kError || ji.validKind == kError)
        return Disposition::needEval;
    if (!screened) {
        if (entry.ubKind == kUserError)
            return Disposition::infeasible;
        if (entry.ubKind == kError)
            return Disposition::needEval;
    }
    if (entry.preKind == kUserError)
        return Disposition::infeasible;
    if (entry.preKind == kError)
        return Disposition::needEval;

    // Term probes and closed forms, in the evaluator's lookup order
    // (the first failing step decides the point's classification).
    const auto fwd = cache.probeForwardCompute(entry.fwdId);
    if (fwd.status == Status::userError)
        return Disposition::infeasible;
    if (fwd.status == Status::error)
        return Disposition::needEval;
    const auto upd = cache.probeWeightUpdate(entry.updId);
    if (upd.status == Status::userError)
        return Disposition::infeasible;
    if (upd.status == Status::error)
        return Disposition::needEval;

    double tp_intra_layer = 0.0;
    double tp_inter_layer = 0.0;
    double pp_layer = 0.0;
    try {
        tp_intra_layer =
            cache.tpIntraCommTime(mi.tpIntra, entry.replicaBatch)
                .value();
        tp_inter_layer =
            cache.tpInterCommTime(mi.tpInter, entry.replicaBatch)
                .value();
        pp_layer = cache.ppCommTime(mi.ppIntra, mi.ppInter,
                                    entry.replicaBatch)
                       .value();
    } catch (const UserError &) {
        return Disposition::infeasible;
    } catch (const std::exception &) {
        return Disposition::needEval;
    }

    const auto moe = cache.probeMoeForward(entry.moeId);
    if (moe.status == Status::userError)
        return Disposition::infeasible;
    if (moe.status == Status::error)
        return Disposition::needEval;
    const auto grad = cache.probeGrad(mi.gradId);
    if (grad.status == Status::userError)
        return Disposition::infeasible;
    if (grad.status == Status::error)
        return Disposition::needEval;
    if (ji.nbKind == kUserError)
        return Disposition::infeasible;
    if (ji.nbKind == kError)
        return Disposition::needEval;

    // Additive reassembly of the exact per-batch time (the same
    // terms the kernel computes, associated slightly differently).
    const double cf = fwd.value / mi.workers;
    const double cb = sc.bwdCompute * fwd.value / mi.workers;
    const double wu = upd.value / mi.workers;
    const double comm_tp_intra =
        sc.fb * tp_intra_layer * sc.layersD * mi.stageOverlap;
    const double comm_tp_inter =
        sc.fb * tp_inter_layer * sc.layersD * mi.stageOverlap;
    const double comm_pp = sc.fb * pp_layer * sc.layersD * sc.ppMult;
    const double comm_moe = sc.fb * moe.value * mi.stageOverlap;
    const double useful = cf + cb + comm_tp_intra + comm_tp_inter +
                          comm_pp + comm_moe;
    double bubble = 0.0;
    if (mi.pp > 1)
        bubble =
            sc.bubbleRatio * (mi.ppD - 1.0) / entry.nub * useful;
    const double time_per_batch = useful + wu + grad.value +
                                  grad.value2 + bubble;
    const double total = ji.numBatches * time_per_batch;
    if (!std::isfinite(total))
        return Disposition::needEval; // Will NaN-pin; key +infinity.
    bound = total - kBoundMargin * std::abs(total);
    return Disposition::needEval;
}

} // namespace

Optimizer::Optimizer(core::AmpedModel model) : model_(std::move(model))
{
}

void
Optimizer::setMemoryModel(core::MemoryModel memory_model)
{
    memoryModel_.emplace(std::move(memory_model));
}

OptimizerResult
Optimizer::optimize(const OptimizerRequest &request) const
{
    mapping::MappingSpace space(model_.system());
    const std::int64_t max_pp = model_.opCounter().config().numLayers;
    return optimizeOver(space.enumerate(max_pp), request);
}

OptimizerResult
Optimizer::optimizeOver(
    const std::vector<mapping::ParallelismConfig> &mappings,
    const OptimizerRequest &request) const
{
    auto &metrics = obs::MetricsRegistry::global();
    static obs::Counter &points_counter =
        metrics.counter("explore.optimize.points");
    static obs::Counter &evaluated_counter =
        metrics.counter("explore.optimize.evaluated");
    static obs::Counter &memory_counter =
        metrics.counter("explore.optimize.pruned_by_memory");
    static obs::Counter &bound_counter =
        metrics.counter("explore.optimize.pruned_by_bound");
    static obs::Counter &infeasible_counter =
        metrics.counter("explore.optimize.skipped_infeasible");
    static obs::Histogram &optimize_seconds =
        metrics.histogram("explore.optimize.seconds", /*timing=*/true);
    obs::ScopedTimer timer(optimize_seconds);

    if (request.topK == 0)
        throw UserError("optimize: topK must be >= 1");
    if (request.batchSizes.empty())
        throw UserError(
            "optimize: at least one batch size is required");
    if (request.expertParallel < 1)
        throw UserError(
            "optimize: expert-parallel degree must be >= 1 (got " +
            std::to_string(request.expertParallel) + ")");
    const std::int64_t experts =
        model_.opCounter().config().moe.numExperts;
    if (request.expertParallel > 1) {
        if (experts <= 0)
            throw UserError(
                "optimize: expert parallelism (requested degree " +
                std::to_string(request.expertParallel) +
                ") requires a mixture-of-experts model, and this "
                "model has no experts");
        if (experts % request.expertParallel != 0)
            throw UserError(
                "optimize: expert-parallel degree " +
                std::to_string(request.expertParallel) +
                " must divide the model's expert count " +
                std::to_string(experts));
    }

    std::vector<core::TrainingJob> jobs;
    jobs.reserve(request.batchSizes.size());
    for (const double batch : request.batchSizes) {
        core::TrainingJob job = request.jobTemplate;
        job.batchSize = batch;
        jobs.push_back(job);
    }

    OptimizerResult out;
    const std::size_t num_jobs = jobs.size();
    const std::size_t count = mappings.size() * num_jobs;
    out.counters.points = count;
    points_counter.add(count);
    if (count == 0)
        return out;

    const SweepKernel kernel(model_,
                             memoryModel_ ? &*memoryModel_ : nullptr,
                             mappings, jobs, threads_, token_);
    out.counters.cells = kernel.numClasses() * num_jobs;
    if (kernel.primeStatus() != RunStatus::Completed) {
        out.status = kernel.primeStatus();
        out.counters.cancelledUnvisited = count;
        return out;
    }

    BoundScalars sc;
    const auto &options = model_.options();
    sc.layersD =
        static_cast<double>(model_.opCounter().config().numLayers);
    sc.bwdCompute = options.backwardComputeMultiplier;
    sc.fb = (1.0 + options.zeroDpOverhead) *
            (1.0 + options.backwardCommMultiplier);
    sc.ppMult = options.ppCommMultiplier;
    sc.bubbleRatio = options.bubbleOverlapRatio;

    // ---- Screen + bound every grid point (parallel, pure). ---------
    // Each mapping's task keeps its own survivors as a min-heap on
    // (bound, grid index), so no state grows with the grid but the
    // survivors themselves, and no serial pass walks the points.
    std::vector<MappingScreen> screens(mappings.size());
    const unsigned workers =
        threads_ > 0 ? threads_ : ThreadPool::defaultThreadCount();
    const RunStatus screen_status = ThreadPool::shared().parallelFor(
        mappings.size(), /*chunk=*/16,
        [&](std::size_t m) {
            MappingScreen &screen = screens[m];
            for (std::size_t j = 0; j < num_jobs; ++j) {
                double bound = kInf;
                switch (screenPoint(kernel, sc, m, j, bound)) {
                case Disposition::needEval:
                    screen.heap.push_back({bound, m * num_jobs + j});
                    break;
                case Disposition::infeasible:
                    ++screen.skippedInfeasible;
                    break;
                case Disposition::overMemory:
                    ++screen.prunedByMemory;
                    break;
                }
            }
            std::make_heap(screen.heap.begin(), screen.heap.end(),
                           visitsAfter);
        },
        token_, workers);
    if (screen_status != RunStatus::Completed) {
        // Screen heaps are torn; nothing was dispositioned yet.
        out.status = screen_status;
        out.counters.cancelledUnvisited = count;
        return out;
    }

    // Best-first: ascending bound, grid order among equals.  The
    // visit merges the mapping heaps lazily through a heap of the
    // mappings that still hold survivors, ordered by their heads, so
    // it ranks only as far as it reads.  (bound, grid index) is a
    // strict total order, so the merged sequence is exactly a full
    // sort's.
    std::vector<std::size_t> open;
    std::size_t survivors = 0;
    for (std::size_t m = 0; m < screens.size(); ++m) {
        const MappingScreen &screen = screens[m];
        out.counters.skippedInfeasible += screen.skippedInfeasible;
        out.counters.prunedByMemory += screen.prunedByMemory;
        survivors += screen.heap.size();
        if (!screen.heap.empty())
            open.push_back(m);
    }
    const auto heads_after = [&screens](std::size_t a, std::size_t b) {
        return visitsAfter(screens[a].heap.front(),
                           screens[b].heap.front());
    };
    std::make_heap(open.begin(), open.end(), heads_after);

    // ---- Best-first waves over the survivors. ----------------------
    // Max-heap of the k best candidates; the root is the current
    // k-th best key.  The prune threshold is refreshed per wave.
    std::vector<Candidate> heap;
    heap.reserve(std::min(request.topK, count) + 1);
    const auto heap_cmp = [](const Candidate &a, const Candidate &b) {
        return ranksBefore(a, b); // push_heap keeps the worst on top
    };
    double kth_key = kInf;

    std::vector<std::size_t> wave;
    wave.reserve(kMaxWavePoints);
    std::size_t wave_cap =
        std::max<std::size_t>(kFirstWavePoints, request.topK);
    std::vector<SweepKernel::Outcome> outcomes;
    const auto flush = [&]() -> RunStatus {
        if (wave.empty())
            return RunStatus::Completed;
        // THE wave-boundary checkpoint: the only deterministic stop
        // point of the search.  Waves are built from the (thread-
        // count-independent) bound order, so "stop before wave N"
        // yields identical best-so-far results on any machine.
        const RunStatus stop = token_.checkpoint();
        if (stop != RunStatus::Completed)
            return stop;
        outcomes.clear();
        outcomes.reserve(wave.size());
        const RunStatus eval =
            kernel.evaluatePoints(wave, outcomes, threads_);
        if (eval != RunStatus::Completed)
            return eval; // Wave discarded whole; heap untouched.
        for (std::size_t i = 0; i < wave.size(); ++i) {
            const std::size_t index = wave[i];
            SweepKernel::Outcome &outcome = outcomes[i];
            ++out.counters.evaluated;
            Candidate candidate;
            candidate.gridIndex = index;
            switch (outcome.status) {
            case PointStatus::feasible:
                ++out.counters.feasible;
                candidate.key = outcome.result.totalTime;
                break;
            case PointStatus::infeasible:
                ++out.counters.infeasible;
                continue;
            case PointStatus::overMemory:
                ++out.counters.overMemory;
                continue;
            case PointStatus::failedPoint: {
                ++out.counters.failed;
                const auto &m = mappings[index / num_jobs];
                log::warn("sweep point ", m.toString(), " batch ",
                          jobs[index % num_jobs].batchSize,
                          " failed (", outcome.failure,
                          "); pinning it to nan");
                candidate.key = kInf;
                break;
            }
            }
            candidate.entry.mapping = mappings[index / num_jobs];
            candidate.entry.batchSize =
                jobs[index % num_jobs].batchSize;
            candidate.entry.result = std::move(outcome.result);
            heap.push_back(std::move(candidate));
            std::push_heap(heap.begin(), heap.end(), heap_cmp);
            if (heap.size() > request.topK) {
                std::pop_heap(heap.begin(), heap.end(), heap_cmp);
                heap.pop_back();
            }
        }
        wave.clear();
        if (heap.size() == request.topK)
            kth_key = heap.front().key;
        return RunStatus::Completed;
    };

    std::size_t consumed = 0; // Survivors dispositioned so far.
    RunStatus search = RunStatus::Completed;
    while (!open.empty()) {
        // Strictly-greater prune: a bound above the k-th best key
        // means the exact time is strictly above it too (bound <=
        // exact), so the point cannot displace any ranked entry.
        // The threshold only moves at a flush, and a flush needs an
        // unpruned point; bounds ascend along the visit, so once one
        // point prunes, every later one does too.  The unmerged rest
        // is counted without being ranked or visited.
        const RankedIndex head = screens[open.front()].heap.front();
        if (heap.size() == request.topK && head.key > kth_key) {
            out.counters.prunedByBound += survivors - consumed;
            consumed = survivors;
            break;
        }
        // Pop the head off its mapping's heap, and put the mapping
        // back while it has survivors left.
        std::pop_heap(open.begin(), open.end(), heads_after);
        std::vector<RankedIndex> &rest = screens[open.back()].heap;
        std::pop_heap(rest.begin(), rest.end(), visitsAfter);
        rest.pop_back();
        if (rest.empty())
            open.pop_back();
        else
            std::push_heap(open.begin(), open.end(), heads_after);
        wave.push_back(head.index);
        ++consumed;
        if (wave.size() >= wave_cap) {
            search = flush();
            if (search != RunStatus::Completed)
                break;
            wave_cap =
                std::min(wave_cap * kWaveGrowth, kMaxWavePoints);
        }
    }
    if (search == RunStatus::Completed)
        search = flush();
    if (search != RunStatus::Completed) {
        // A stopped flush leaves its wave queued, not evaluated:
        // those points plus the never-consumed survivors complete
        // the disposition partition.
        out.status = search;
        out.counters.cancelledUnvisited =
            wave.size() + (survivors - consumed);
    }

    std::sort_heap(heap.begin(), heap.end(), heap_cmp);
    out.topK.reserve(heap.size());
    for (Candidate &candidate : heap)
        out.topK.push_back(std::move(candidate.entry));

    evaluated_counter.add(out.counters.evaluated);
    memory_counter.add(out.counters.prunedByMemory);
    bound_counter.add(out.counters.prunedByBound);
    infeasible_counter.add(out.counters.skippedInfeasible);

    // ---- Heterogeneity-aware refinement of the winner. -------------
    // Only a Completed search is refined: a best-so-far winner from a
    // stopped search may not be the real one.
    if (out.status == RunStatus::Completed &&
        !request.heterogeneousStages.empty() && !out.topK.empty() &&
        std::isfinite(out.topK.front().result.totalTime)) {
        const SweepEntry &best = out.topK.front();
        std::vector<core::HeterogeneousStage> stages =
            request.heterogeneousStages;
        for (core::HeterogeneousStage &stage : stages)
            stage.tpDegree = best.mapping.tp();
        stages = core::HeterogeneousPipelineModel::balanceLayers(
            model_.opCounter(), std::move(stages),
            best.result.microbatchSize);
        const core::HeterogeneousPipelineModel hetero(
            model_.opCounter(), stages, model_.system().interLink,
            options.backwardComputeMultiplier);
        core::TrainingJob job = request.jobTemplate;
        job.batchSize = best.batchSize /
                        static_cast<double>(best.mapping.dp());
        HeterogeneousPlan plan;
        plan.stages = std::move(stages);
        plan.result = hetero.evaluate(job);
        out.heterogeneous = std::move(plan);
    }

    return out;
}

} // namespace explore
} // namespace amped

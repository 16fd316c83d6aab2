#include "sweep_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace amped {
namespace explore {

namespace {

/** Exact-match key for a (dp, pp) mapping class. */
struct DpPpKey
{
    std::int64_t dp = 0;
    std::int64_t pp = 0;
    bool operator==(const DpPpKey &o) const
    {
        return dp == o.dp && pp == o.pp;
    }
};

struct DpPpKeyHash
{
    std::size_t operator()(const DpPpKey &k) const
    {
        // Degrees are small powers of two; a shifted xor is enough.
        return static_cast<std::size_t>(k.dp) * 1315423911u ^
               static_cast<std::size_t>(k.pp);
    }
};

struct DegreeShapeHash
{
    std::size_t operator()(const core::DegreeShape &k) const
    {
        return DpPpKeyHash{}(DpPpKey{k.dp, k.pp}) * 2654435761u ^
               static_cast<std::size_t>(k.tp);
    }
};

/** Grid points per work-queue grab inside a block. */
constexpr std::size_t kPointChunk = 256;

/** Jobs per work-queue grab while filling the (job x class) table. */
constexpr std::size_t kJobChunk = 16;

/** One distinct term key of a job and the cache ids it registered. */
struct KeySlot
{
    double key = 0.0;
    std::size_t id = 0;  ///< Forward id (efficiency) or MoE id.
    std::size_t id2 = 0; ///< Weight-update id (efficiency only).
};

/** Index of @p key's slot in @p slots (bitwise match), added if new. */
std::size_t
slotOf(std::vector<KeySlot> &slots, double key)
{
    for (std::size_t s = 0; s < slots.size(); ++s)
        if (std::memcmp(&slots[s].key, &key, sizeof key) == 0)
            return s;
    slots.push_back(KeySlot{key});
    return slots.size() - 1;
}

/** What one job's rows need registered, collected by its fill. */
struct JobKeys
{
    std::vector<KeySlot> effs;     ///< Distinct efficiencies.
    std::vector<KeySlot> replicas; ///< Distinct per-replica batches.
    std::vector<std::string> messages; ///< kError what()s.
    std::uint32_t messageBase = 0; ///< Index of messages[0] in the table.
};

} // namespace

/**
 * Output columns for one block of grid points (structure of arrays).
 * Raw doubles on purpose: Quantity types are unwrapped at this
 * boundary and re-wrapped when the block is reduced, the same
 * boundary core::Breakdown draws for the scalar path.  The struct
 * lives in this translation unit only — raw-double columns with
 * dimension-implying names never enter a public header (the
 * tools/lint_units "Quantity boundary rule").
 */
struct BlockColumns
{
    std::vector<PointStatus> status;
    std::vector<std::string> failures;
    std::vector<double> computeForward;
    std::vector<double> computeBackward;
    std::vector<double> weightUpdate;
    std::vector<double> commTpIntra;
    std::vector<double> commTpInter;
    std::vector<double> commPp;
    std::vector<double> commMoe;
    std::vector<double> commGradIntra;
    std::vector<double> commGradInter;
    std::vector<double> bubble;
    std::vector<double> timePerBatch;
    std::vector<double> numBatches;
    std::vector<double> totalTime;
    std::vector<double> microbatchSize;
    std::vector<double> numMicrobatches;
    std::vector<double> efficiency;
    std::vector<double> achievedFlopsPerGpu;
    std::vector<double> tokensPerSecond;

    void resize(std::size_t n)
    {
        status.assign(n, PointStatus::infeasible);
        failures.assign(n, std::string());
        computeForward.assign(n, 0.0);
        computeBackward.assign(n, 0.0);
        weightUpdate.assign(n, 0.0);
        commTpIntra.assign(n, 0.0);
        commTpInter.assign(n, 0.0);
        commPp.assign(n, 0.0);
        commMoe.assign(n, 0.0);
        commGradIntra.assign(n, 0.0);
        commGradInter.assign(n, 0.0);
        bubble.assign(n, 0.0);
        timePerBatch.assign(n, 0.0);
        numBatches.assign(n, 0.0);
        totalTime.assign(n, 0.0);
        microbatchSize.assign(n, 0.0);
        numMicrobatches.assign(n, 0.0);
        efficiency.assign(n, 0.0);
        achievedFlopsPerGpu.assign(n, 0.0);
        tokensPerSecond.assign(n, 0.0);
    }
};

namespace {

/** Copies one feasible slot's columns into an EvaluationResult. */
void
packResult(const BlockColumns &cols, std::size_t slot,
           core::EvaluationResult &r)
{
    r.perBatch.computeForward = cols.computeForward[slot];
    r.perBatch.computeBackward = cols.computeBackward[slot];
    r.perBatch.weightUpdate = cols.weightUpdate[slot];
    r.perBatch.commTpIntra = cols.commTpIntra[slot];
    r.perBatch.commTpInter = cols.commTpInter[slot];
    r.perBatch.commPp = cols.commPp[slot];
    r.perBatch.commMoe = cols.commMoe[slot];
    r.perBatch.commGradIntra = cols.commGradIntra[slot];
    r.perBatch.commGradInter = cols.commGradInter[slot];
    r.perBatch.bubble = cols.bubble[slot];
    r.timePerBatch = cols.timePerBatch[slot];
    r.numBatches = cols.numBatches[slot];
    r.totalTime = cols.totalTime[slot];
    r.microbatchSize = cols.microbatchSize[slot];
    r.numMicrobatches = cols.numMicrobatches[slot];
    r.efficiency = cols.efficiency[slot];
    r.achievedFlopsPerGpu = cols.achievedFlopsPerGpu[slot];
    r.tokensPerSecond = cols.tokensPerSecond[slot];
}

} // namespace

core::EvaluationResult
nanPinnedResult()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    core::EvaluationResult result;
    result.perBatch.computeForward = nan;
    result.perBatch.computeBackward = nan;
    result.perBatch.weightUpdate = nan;
    result.perBatch.commTpIntra = nan;
    result.perBatch.commTpInter = nan;
    result.perBatch.commPp = nan;
    result.perBatch.commMoe = nan;
    result.perBatch.commGradIntra = nan;
    result.perBatch.commGradInter = nan;
    result.perBatch.bubble = nan;
    result.timePerBatch = nan;
    result.numBatches = nan;
    result.totalTime = nan;
    result.microbatchSize = nan;
    result.numMicrobatches = nan;
    result.efficiency = nan;
    result.achievedFlopsPerGpu = nan;
    result.tokensPerSecond = nan;
    return result;
}

SweepKernel::SweepKernel(
    const core::AmpedModel &model,
    const core::MemoryModel *memory_model,
    const std::vector<mapping::ParallelismConfig> &mappings,
    const std::vector<core::TrainingJob> &jobs, unsigned max_workers,
    CancelToken token)
    : model_(model), memoryModel_(memory_model), mappings_(mappings),
      jobs_(jobs), token_(std::move(token)), cache_(model)
{
    const auto &cfg = model_.opCounter().config();
    layersD_ = static_cast<double>(cfg.numLayers);
    seqD_ = static_cast<double>(cfg.seqLength);
    const auto &options = model_.options();
    bwdCompute_ = options.backwardComputeMultiplier;
    const double zero_factor = 1.0 + options.zeroDpOverhead;
    const double bwd_factor = options.backwardCommMultiplier;
    fb_ = zero_factor * (1.0 + bwd_factor);
    ppMult_ = options.ppCommMultiplier;
    bubbleRatio_ = options.bubbleOverlapRatio;

    const std::size_t num_jobs = jobs_.size();

    // ---- Per-mapping constants, (dp, pp) class and memory shape. ---
    mappingInfos_.resize(mappings_.size());
    std::vector<std::size_t> class_representative; // mapping index
    std::unordered_map<DpPpKey, std::uint32_t, DpPpKeyHash> class_ids;
    std::vector<core::DegreeShape> shapes;
    std::vector<std::uint32_t> shape_classes; // class of each shape
    std::unordered_map<core::DegreeShape, std::uint32_t, DegreeShapeHash>
        shape_ids;
    for (std::size_t i = 0; i < mappings_.size(); ++i) {
        const auto &m = mappings_[i];
        MappingInfo &info = mappingInfos_[i];
        try {
            m.validateFor(model_.system());
        } catch (const UserError &) {
            info.kind = kUserError;
        } catch (const std::exception &e) {
            info.kind = kError;
            info.message = e.what();
        }
        info.pp = m.pp();
        info.ppD = static_cast<double>(m.pp());
        info.stageOverlap = 1.0 / static_cast<double>(m.pp());
        info.workers = static_cast<double>(m.totalWorkers());
        info.tpIntra = m.tpIntra;
        info.tpInter = m.tpInter;
        info.ppIntra = m.ppIntra;
        info.ppInter = m.ppInter;
        if (info.kind == kOk)
            info.gradId = cache_.registerGrad(m);
        const DpPpKey key{m.dp(), m.pp()};
        const auto it = class_ids.find(key);
        if (it != class_ids.end()) {
            info.classIdx = it->second;
        } else {
            info.classIdx =
                static_cast<std::uint32_t>(class_representative.size());
            class_ids.emplace(key, info.classIdx);
            class_representative.push_back(i);
            classMembers_.emplace_back();
        }
        classMembers_[info.classIdx].push_back(i);
        if (memoryModel_ == nullptr)
            continue;
        try {
            m.validate(); // What fits() checks of a mapping first.
        } catch (const UserError &) {
            continue; // No shape: the fit check's UserError.
        }
        const core::DegreeShape shape = core::DegreeShape::of(m);
        const auto [at, added] = shape_ids.emplace(
            shape, static_cast<std::uint32_t>(shapes.size()));
        if (added) {
            shapes.push_back(shape);
            shape_classes.push_back(info.classIdx);
        }
        info.shapeIdx = at->second;
    }
    const std::size_t num_classes = class_representative.size();
    numShapes_ = shapes.size();

    // ---- Per-job constants. ----------------------------------------
    jobInfos_.resize(num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j) {
        const auto &job = jobs_[j];
        JobInfo &info = jobInfos_[j];
        info.batch = job.batchSize;
        try {
            job.validate();
        } catch (const UserError &) {
            info.validKind = kUserError;
        } catch (const std::exception &e) {
            info.validKind = kError;
            info.validMessage = e.what();
        }
        try {
            info.numBatches = job.numBatches(cfg.seqLength);
        } catch (const UserError &) {
            info.nbKind = kUserError;
        } catch (const std::exception &e) {
            info.nbKind = kError;
            info.nbMessage = e.what();
        }
        info.flopsId = cache_.registerModelFlops(job.batchSize);
    }

    // ---- (job x class) and (shape x job) tables, in parallel. -----
    // Every row is independent of every other, so workers fill whole
    // jobs; each job's rows are one per class (then one per shape), a
    // stride of num_jobs apart in storage.  Each job collects its
    // distinct keys and its failure messages in class order, then
    // shape order; until the ids are written below, a row's fwdId and
    // moeId hold its slots in those lists and a messageId indexes the
    // job's own messages.
    const std::size_t workers =
        max_workers > 0 ? max_workers : ThreadPool::defaultThreadCount();
    jc_.resize(num_jobs * num_classes);
    memory_.resize(num_jobs * numShapes_);
    std::vector<JobKeys> job_keys(num_jobs);
    ThreadPool::shared().parallelFor(
        num_jobs, /*chunk=*/kJobChunk,
        [&](std::size_t j) {
            const auto &job = jobs_[j];
            JobKeys &keys = job_keys[j];
            // Keeps a kError what() in the job's message list.
            const auto error = [&keys](std::uint32_t &message_id,
                                       const std::exception &e) {
                message_id =
                    static_cast<std::uint32_t>(keys.messages.size());
                keys.messages.emplace_back(e.what());
                return kError;
            };
            for (std::size_t c = 0; c < num_classes; ++c) {
                const auto &rep = mappings_[class_representative[c]];
                JcEntry &entry = jc_[c * num_jobs + j];
                try {
                    entry.ub = job.microbatching.microbatchSize(
                        job.batchSize, rep);
                } catch (const UserError &) {
                    entry.ubKind = kUserError;
                } catch (const std::exception &e) {
                    entry.ubKind = error(entry.messageId, e);
                }
                if (entry.ubKind != kOk)
                    continue;
                try {
                    entry.nub = job.microbatching.numMicrobatches(
                        job.batchSize, rep);
                    entry.eff = model_.efficiency()(entry.ub);
                } catch (const UserError &) {
                    entry.preKind = kUserError;
                } catch (const std::exception &e) {
                    entry.preKind = error(entry.messageId, e);
                }
                entry.replicaBatch =
                    job.batchSize / static_cast<double>(rep.dp());
                if (entry.preKind != kOk)
                    continue;
                entry.fwdId = slotOf(keys.effs, entry.eff);
                entry.moeId = slotOf(keys.replicas, entry.replicaBatch);
            }
            for (std::size_t s = 0; s < numShapes_; ++s) {
                const JcEntry &row = jc_[shape_classes[s] * num_jobs + j];
                if (row.ubKind != kOk)
                    continue;
                MemoryCell &cell = memory_[s * num_jobs + j];
                try {
                    cell.fits =
                        memoryModel_->fits(shapes[s], job.batchSize, row.ub);
                } catch (const UserError &) {
                    cell.kind = kUserError;
                } catch (const std::exception &e) {
                    cell.kind = error(cell.messageId, e);
                }
            }
        },
        workers);

    // ---- Term registration: serial, slot-major and job-minor. ------
    // Only the grid decides these ids, so they are the same at any
    // worker count; the order keeps a class's ids along the job axis.
    std::size_t eff_slots = 0;
    std::size_t replica_slots = 0;
    for (JobKeys &keys : job_keys) {
        eff_slots = std::max(eff_slots, keys.effs.size());
        replica_slots = std::max(replica_slots, keys.replicas.size());
        keys.messageBase = static_cast<std::uint32_t>(messages_.size());
        for (std::string &message : keys.messages)
            messages_.push_back(std::move(message));
    }
    for (std::size_t s = 0; s < eff_slots; ++s) {
        for (std::size_t j = 0; j < num_jobs; ++j) {
            std::vector<KeySlot> &effs = job_keys[j].effs;
            if (s >= effs.size())
                continue;
            effs[s].id = cache_.registerForwardCompute(
                jobs_[j].batchSize, effs[s].key);
            effs[s].id2 = cache_.registerWeightUpdate(effs[s].key);
        }
    }
    for (std::size_t s = 0; s < replica_slots; ++s) {
        for (std::size_t j = 0; j < num_jobs; ++j) {
            std::vector<KeySlot> &replicas = job_keys[j].replicas;
            if (s < replicas.size())
                replicas[s].id = cache_.registerMoeForward(replicas[s].key);
        }
    }

    // ---- Term ids and message indices into the rows, in parallel. --
    ThreadPool::shared().parallelFor(
        num_jobs, /*chunk=*/kJobChunk,
        [&](std::size_t j) {
            const JobKeys &keys = job_keys[j];
            for (std::size_t c = 0; c < num_classes; ++c) {
                JcEntry &entry = jc_[c * num_jobs + j];
                if (entry.ubKind == kError || entry.preKind == kError) {
                    entry.messageId += keys.messageBase;
                } else if (entry.ubKind == kOk && entry.preKind == kOk) {
                    const KeySlot &eff = keys.effs[entry.fwdId];
                    entry.fwdId = eff.id;
                    entry.updId = eff.id2;
                    entry.moeId = keys.replicas[entry.moeId].id;
                }
            }
            for (std::size_t s = 0; s < numShapes_; ++s) {
                MemoryCell &cell = memory_[s * num_jobs + j];
                if (cell.kind == kError)
                    cell.messageId += keys.messageBase;
            }
        },
        workers);

    primeStatus_ = cache_.prime(max_workers, token_);
}

void
SweepKernel::evaluatePointInto(std::size_t index, std::size_t slot,
                               BlockColumns &cols) const
{
    const std::size_t num_jobs = jobs_.size();
    const MappingInfo &mi = mappingInfos_[index / num_jobs];
    const JobInfo &ji = jobInfos_[index % num_jobs];
    const JcEntry &entry =
        jc_[mi.classIdx * num_jobs + index % num_jobs];

    const auto fail = [&](const std::string &message) {
        cols.status[slot] = PointStatus::failedPoint;
        cols.failures[slot] = message;
    };

    // The scalar path's exact step order: with a memory model the
    // microbatch size and the fit check run before any mapping /
    // job validation (Explorer's screening lambda), otherwise the
    // microbatch size is first derived inside evaluate(), after
    // the validations.
    if (memoryModel_ != nullptr) {
        if (entry.ubKind == kUserError)
            return; // infeasible (the default status)
        if (entry.ubKind == kError)
            return fail(messages_[entry.messageId]);
        const MemoryCell &cell =
            memoryCell(index / num_jobs, index % num_jobs);
        if (cell.kind == kUserError)
            return;
        if (cell.kind == kError)
            return fail(messages_[cell.messageId]);
        if (!cell.fits) {
            cols.status[slot] = PointStatus::overMemory;
            return;
        }
    }
    if (mi.kind == kUserError)
        return;
    if (mi.kind == kError)
        return fail(mi.message);
    if (ji.validKind == kUserError)
        return;
    if (ji.validKind == kError)
        return fail(ji.validMessage);
    if (memoryModel_ == nullptr) {
        if (entry.ubKind == kUserError)
            return;
        if (entry.ubKind == kError)
            return fail(messages_[entry.messageId]);
    }
    if (entry.preKind == kUserError)
        return;
    if (entry.preKind == kError)
        return fail(messages_[entry.messageId]);

    try {
        // Mirrors evaluate()'s assembly expression by expression;
        // Quantity math unwraps into the raw columns exactly
        // where the scalar path unwraps into Breakdown.
        const Seconds fwd_total =
            cache_.forwardComputeTotal(entry.fwdId);
        const Seconds update_total =
            cache_.weightUpdateTotal(entry.updId);
        const double compute_forward =
            (fwd_total / mi.workers).value();
        const double compute_backward =
            (bwdCompute_ * fwd_total / mi.workers).value();
        cols.computeForward[slot] = compute_forward;
        cols.computeBackward[slot] = compute_backward;
        cols.weightUpdate[slot] =
            (update_total / mi.workers).value();

        const Seconds tp_intra_layer =
            cache_.tpIntraCommTime(mi.tpIntra, entry.replicaBatch);
        const Seconds tp_inter_layer =
            cache_.tpInterCommTime(mi.tpInter, entry.replicaBatch);
        const Seconds pp_layer = cache_.ppCommTime(
            mi.ppIntra, mi.ppInter, entry.replicaBatch);
        const Seconds moe_total =
            cache_.moeForwardTotal(entry.moeId);
        const double comm_tp_intra =
            (fb_ * tp_intra_layer * layersD_ * mi.stageOverlap)
                .value();
        const double comm_tp_inter =
            (fb_ * tp_inter_layer * layersD_ * mi.stageOverlap)
                .value();
        const double comm_pp =
            (fb_ * pp_layer * layersD_ * ppMult_).value();
        const double comm_moe =
            (fb_ * moe_total * mi.stageOverlap).value();
        cols.commTpIntra[slot] = comm_tp_intra;
        cols.commTpInter[slot] = comm_tp_inter;
        cols.commPp[slot] = comm_pp;
        cols.commMoe[slot] = comm_moe;

        const core::SweepTermCache::GradTotals grad =
            cache_.gradTotals(mi.gradId);
        cols.commGradIntra[slot] = grad.intra.value();
        cols.commGradInter[slot] = grad.inter.value();

        double bubble = 0.0;
        if (mi.pp > 1) {
            const double useful = compute_forward +
                                  compute_backward + comm_tp_intra +
                                  comm_tp_inter + comm_pp +
                                  comm_moe;
            bubble = bubbleRatio_ * (mi.ppD - 1.0) / entry.nub *
                     useful;
        }
        cols.bubble[slot] = bubble;

        // Breakdown::total() over the same ten columns.
        core::Breakdown bd;
        bd.computeForward = compute_forward;
        bd.computeBackward = compute_backward;
        bd.weightUpdate = cols.weightUpdate[slot];
        bd.commTpIntra = comm_tp_intra;
        bd.commTpInter = comm_tp_inter;
        bd.commPp = comm_pp;
        bd.commMoe = comm_moe;
        bd.commGradIntra = cols.commGradIntra[slot];
        bd.commGradInter = cols.commGradInter[slot];
        bd.bubble = bubble;
        const double time_per_batch = bd.total();
        cols.timePerBatch[slot] = time_per_batch;

        // evaluate() derives N_batch here; reproduce its failure
        // position so exception classification matches.
        if (ji.nbKind == kUserError)
            return;
        if (ji.nbKind == kError)
            return fail(ji.nbMessage);
        cols.numBatches[slot] = ji.numBatches;
        cols.totalTime[slot] = ji.numBatches * time_per_batch;
        cols.microbatchSize[slot] = entry.ub;
        cols.numMicrobatches[slot] = entry.nub;
        cols.efficiency[slot] = entry.eff;
        cols.achievedFlopsPerGpu[slot] =
            cache_.modelFlopsPerBatch(ji.flopsId) /
            (time_per_batch * mi.workers);
        cols.tokensPerSecond[slot] =
            ji.batch * seqD_ / time_per_batch;
    } catch (const UserError &) {
        cols.status[slot] = PointStatus::infeasible;
        return;
    } catch (const std::exception &e) {
        return fail(e.what());
    }

    if (!std::isfinite(cols.totalTime[slot]))
        return fail("non-finite total time");
    cols.status[slot] = PointStatus::feasible;
}

SweepResult
SweepKernel::sweepGrid(unsigned max_workers) const
{
    SweepResult out;
    const std::size_t num_jobs = jobs_.size();
    const std::size_t count = numPoints();
    if (count == 0)
        return out;
    // A stop during cache priming needs no special case: the token
    // is latched, so the first block checkpoint below observes it
    // (recording the cancellation latency exactly once) and returns
    // before any pending cache entry could be read.

    // Each grid point yields at most one entry, so one reservation
    // replaces the ~20 doublings of an unreserved push_back (the last
    // of which holds the old and the new buffer at once).
    out.entries.reserve(count);

    BlockColumns cols;
    for (std::size_t base = 0; base < count;
         base += kSweepBlockPoints) {
        // THE deterministic cancellation point: exactly one
        // checkpoint per block, before evaluating it, so a stopped
        // sweep's result is always a whole number of reduced blocks.
        const RunStatus stop = token_.checkpoint();
        if (stop != RunStatus::Completed) {
            out.status = stop;
            out.cancelledUnvisited = count - base;
            return out;
        }

        const std::size_t block =
            std::min(kSweepBlockPoints, count - base);
        cols.resize(block);

        const std::size_t chunks =
            (block + kPointChunk - 1) / kPointChunk;
        const RunStatus loop = ThreadPool::shared().parallelFor(
            chunks, /*chunk=*/1,
            [&](std::size_t chunk_index) {
                const std::size_t begin = chunk_index * kPointChunk;
                const std::size_t end =
                    std::min(begin + kPointChunk, block);
                for (std::size_t slot = begin; slot < end; ++slot)
                    evaluatePointInto(base + slot, slot, cols);
            },
            token_,
            max_workers > 0 ? max_workers
                            : ThreadPool::defaultThreadCount());
        if (loop != RunStatus::Completed) {
            // Mid-block stop: the block's columns are torn, so it is
            // discarded whole — the published prefix stays exact.
            out.status = loop;
            out.cancelledUnvisited = count - base;
            return out;
        }

        // Serial grid-order reduction: entries, counters and warning
        // lines come out byte-identical to the scalar path at any
        // thread count.
        for (std::size_t slot = 0; slot < block; ++slot) {
            const std::size_t index = base + slot;
            switch (cols.status[slot]) {
            case PointStatus::feasible: {
                SweepEntry entry;
                entry.mapping = mappings_[index / num_jobs];
                entry.batchSize = jobs_[index % num_jobs].batchSize;
                packResult(cols, slot, entry.result);
                out.entries.push_back(std::move(entry));
                break;
            }
            case PointStatus::infeasible:
                ++out.skipped;
                break;
            case PointStatus::overMemory:
                ++out.memorySkipped;
                break;
            case PointStatus::failedPoint: {
                const auto &m = mappings_[index / num_jobs];
                const double batch =
                    jobs_[index % num_jobs].batchSize;
                log::warn("sweep point ", m.toString(), " batch ",
                          batch, " failed (", cols.failures[slot],
                          "); pinning it to nan");
                SweepEntry entry;
                entry.mapping = m;
                entry.batchSize = batch;
                entry.result = nanPinnedResult();
                out.entries.push_back(std::move(entry));
                ++out.failed;
                break;
            }
            }
        }
        out.visitedPoints += block;
    }
    return out;
}

RunStatus
SweepKernel::evaluatePoints(const std::vector<std::size_t> &indices,
                            std::vector<Outcome> &outcomes,
                            unsigned max_workers) const
{
    if (primeStatus_ != RunStatus::Completed)
        return primeStatus_;
    const std::size_t count = indices.size();
    if (count == 0)
        return RunStatus::Completed;

    BlockColumns cols;
    for (std::size_t base = 0; base < count;
         base += kSweepBlockPoints) {
        // Passive poll only — checkpoint discipline belongs to the
        // caller (the optimizer checkpoints between waves).
        const RunStatus stop = token_.status();
        if (stop != RunStatus::Completed)
            return stop;

        const std::size_t block =
            std::min(kSweepBlockPoints, count - base);
        cols.resize(block);

        const std::size_t chunks =
            (block + kPointChunk - 1) / kPointChunk;
        const RunStatus loop = ThreadPool::shared().parallelFor(
            chunks, /*chunk=*/1,
            [&](std::size_t chunk_index) {
                const std::size_t begin = chunk_index * kPointChunk;
                const std::size_t end =
                    std::min(begin + kPointChunk, block);
                for (std::size_t slot = begin; slot < end; ++slot)
                    evaluatePointInto(indices[base + slot], slot,
                                      cols);
            },
            token_,
            max_workers > 0 ? max_workers
                            : ThreadPool::defaultThreadCount());
        if (loop != RunStatus::Completed)
            return loop; // Torn block: discard, outcomes untouched.

        for (std::size_t slot = 0; slot < block; ++slot) {
            Outcome outcome;
            outcome.status = cols.status[slot];
            switch (cols.status[slot]) {
            case PointStatus::feasible:
                packResult(cols, slot, outcome.result);
                break;
            case PointStatus::failedPoint:
                outcome.failure = std::move(cols.failures[slot]);
                outcome.result = nanPinnedResult();
                break;
            case PointStatus::infeasible:
            case PointStatus::overMemory:
                break;
            }
            outcomes.push_back(std::move(outcome));
        }
    }
    return RunStatus::Completed;
}

} // namespace explore
} // namespace amped

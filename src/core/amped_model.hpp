/**
 * @file
 * The AMPeD analytical performance model (paper Sec. IV, Eq. 1-12).
 *
 * Given a transformer configuration, an accelerator design, a
 * microbatch-efficiency curve, a system architecture, a parallelism
 * mapping, and a training job, the evaluator produces the per-batch
 * time breakdown, the end-to-end training time, and the achieved
 * TFLOP/s/GPU metric used throughout the paper's validation.
 */

#ifndef AMPED_CORE_AMPED_MODEL_HPP
#define AMPED_CORE_AMPED_MODEL_HPP

#include "core/breakdown.hpp"
#include "core/options.hpp"
#include "core/training_job.hpp"
#include "hw/accelerator.hpp"
#include "hw/efficiency.hpp"
#include "mapping/parallelism.hpp"
#include "model/op_counter.hpp"
#include "net/system_config.hpp"

namespace amped {
namespace core {

/**
 * Everything AMPeD predicts for one (mapping, job) evaluation.
 */
struct EvaluationResult
{
    Breakdown perBatch;          ///< Per-batch phase times (seconds).
    double timePerBatch = 0.0;   ///< perBatch.total().
    double numBatches = 0.0;     ///< N_batch of Eq. 1.
    double totalTime = 0.0;      ///< N_batch * timePerBatch (seconds).
    double microbatchSize = 0.0; ///< ub used for eff(ub).
    double numMicrobatches = 0.0; ///< N_ub of Eq. 8.
    double efficiency = 0.0;     ///< eff(ub) applied to the MAC peak.
    double achievedFlopsPerGpu = 0.0; ///< Model FLOP/s per accelerator.
    double tokensPerSecond = 0.0; ///< End-to-end training throughput.

    /** Total training time in days (case-study reporting unit). */
    double trainingDays() const;
};

/**
 * Everything Eq. 1 reads of one (mapping, job) point, gathered before
 * assembly: the per-point scalars, the four sums over layers and the
 * three per-layer closed forms.  AmpedModel::evaluate gathers them
 * layer by layer; the sweep kernel (explore/sweep_kernel.hpp) looks
 * the sums up in its term cache.  Either way AmpedModel::assemble
 * turns them into the result, so the two agree bit for bit whenever
 * their terms do.
 */
struct PointTerms
{
    double batch = 0.0;           ///< Global batch size B.
    double microbatchSize = 0.0;  ///< ub.
    double numMicrobatches = 0.0; ///< N_ub of Eq. 8.
    double efficiency = 0.0;      ///< eff(ub).
    double numBatches = 0.0;      ///< N_batch of Eq. 1.
    Flops modelFlops{0.0};        ///< OpCounter::modelFlopsPerBatch(B).
    Seconds forwardCompute{0.0};  ///< Sum over layers of U_f (Eq. 2).
    Seconds weightUpdate{0.0};    ///< Sum over layers of U_w (Eq. 12).
    Seconds moeForward{0.0};      ///< Sum over layers of M_f,MoE (Eq. 9).
    Seconds gradIntra{0.0};       ///< Sum over layers of M_g's intra stage.
    Seconds gradInter{0.0};       ///< Sum over layers of M_g's inter stage.
    Seconds tpIntraLayer{0.0};    ///< M_f,TP,intra of one layer (Eq. 6).
    Seconds tpInterLayer{0.0};    ///< M_f,TP,inter of one layer (Eq. 6).
    Seconds ppLayer{0.0};         ///< One layer's pipeline hop (Eq. 7).
};

/**
 * The analytical evaluator.
 *
 * Immutable after construction; evaluate() is const and cheap
 * (microseconds), which is what makes the exhaustive design-space
 * exploration of the case studies practical.
 *
 * Thread safety: every const member function may be called
 * concurrently on one instance from multiple threads.  The
 * evaluator and everything it reaches (OpCounter,
 * AcceleratorConfig, MicrobatchEfficiency, SystemConfig,
 * ModelOptions, the collective cost functions) hold no mutable or
 * static state; explore::Explorer relies on this to evaluate sweep
 * points in parallel against one shared model.
 */
class AmpedModel
{
  public:
    /**
     * @param model_config Transformer architecture (validated).
     * @param accelerator Accelerator design (validated).
     * @param efficiency Microbatch-efficiency curve eff(ub).
     * @param system Cluster description (validated).
     * @param options Evaluator knobs (R, ZeRO, topology overrides...).
     * @param op_options Operation-count cost constants.
     */
    AmpedModel(model::TransformerConfig model_config,
               hw::AcceleratorConfig accelerator,
               hw::MicrobatchEfficiency efficiency,
               net::SystemConfig system, ModelOptions options = {},
               model::OpCountOptions op_options = {});

    /**
     * Evaluates Eq. 1 for a mapping and a job.
     *
     * @throws UserError when the mapping does not fit the system or
     *         the batch does not fit the mapping.
     */
    EvaluationResult evaluate(const mapping::ParallelismConfig &mapping,
                              const TrainingJob &job) const;

    /**
     * Eq. 1's per-point half: turns one point's terms into the ten
     * Breakdown phases and the result.  The one place each phase is
     * assigned: evaluate(), the sweep kernel and the optimizer's
     * screen all assemble through it.  Never throws; a term that
     * fails stops its caller before assembly.
     */
    EvaluationResult assemble(const mapping::ParallelismConfig &mapping,
                              const PointTerms &terms) const;

    // -----------------------------------------------------------------
    // Fine-grained model terms, exposed for tests and ablations.
    // All times are seconds; batch arguments are global batch sizes.
    // -----------------------------------------------------------------

    /** U_f(l) of Eq. 2 for the full global batch. */
    Seconds forwardComputeTime(std::int64_t layer, double batch,
                               double efficiency_value) const;

    /** U_w(l) of Eq. 12. */
    Seconds weightUpdateTime(std::int64_t layer,
                             double efficiency_value) const;

    /** M_f,TP,intra(l) of Eq. 6 (per-replica batch passed in). */
    Seconds tpIntraCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const;

    /** M_f,TP,inter(l): Eq. 6 on the inter-node tier. */
    Seconds tpInterCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const;

    /** max(M_f,PP,intra, M_f,PP,inter)(l) of Eq. 5/7. */
    Seconds ppCommTime(const mapping::ParallelismConfig &mapping,
                       double replica_batch) const;

    /** M_f,MoE(l) of Eq. 9. */
    Seconds moeCommTime(std::int64_t layer, double replica_batch) const;

    /** M_g(l) of Eq. 10-11 (both tiers summed). */
    Seconds gradCommTime(const mapping::ParallelismConfig &mapping,
                         std::int64_t layer, Seconds &intra_part,
                         Seconds &inter_part) const;

    /** The operation counter (model-side knob access). */
    const model::OpCounter &opCounter() const { return opCounter_; }

    /** The accelerator description. */
    const hw::AcceleratorConfig &accelerator() const { return accel_; }

    /** The system description. */
    const net::SystemConfig &system() const { return system_; }

    /** The evaluator options. */
    const ModelOptions &options() const { return options_; }

    /** The microbatch-efficiency curve eff(ub). */
    const hw::MicrobatchEfficiency &efficiency() const
    {
        return efficiency_;
    }

  private:
    model::OpCounter opCounter_;
    hw::AcceleratorConfig accel_;
    hw::MicrobatchEfficiency efficiency_;
    net::SystemConfig system_;
    /** system_'s derived links, captured once at construction. */
    net::SystemSnapshot links_;
    ModelOptions options_;
};

// Defined in the header so the sweep kernel's per-point loop, which
// runs it once per grid point, can inline it.
inline EvaluationResult
AmpedModel::assemble(const mapping::ParallelismConfig &mapping,
                     const PointTerms &terms) const
{
    const double workers = static_cast<double>(mapping.totalWorkers());
    const double pp = static_cast<double>(mapping.pp());

    // --- Computation, scaled by all workers (Eq. 1).  Breakdown is a
    // plain-double reporting struct, so typed Seconds unwrap via
    // .value() at the assignment boundary.
    Breakdown bd;
    bd.computeForward = (terms.forwardCompute / workers).value();
    bd.computeBackward = (options_.backwardComputeMultiplier *
                          terms.forwardCompute / workers)
                             .value();
    bd.weightUpdate = (terms.weightUpdate / workers).value();

    // --- Forward and backward communication (Eq. 5-7, 9).  With
    // pipelining, each stage owns L / N_PP layers and the stages'
    // per-layer all-reduces run concurrently, so the wall-clock sum
    // over layers is scaled by 1 / N_PP — the same concurrency the
    // paper's Eq. 7 encodes via its 1/L factor (DESIGN.md Sec. 3).
    // PP hop communication is already a single boundary's traffic
    // after the 1/L scaling, so it is not scaled again.
    const double zero_factor = 1.0 + options_.zeroDpOverhead;
    const double fb =
        zero_factor * (1.0 + options_.backwardCommMultiplier);
    const double layers =
        static_cast<double>(opCounter_.config().numLayers);
    const double stage_overlap = 1.0 / pp;
    bd.commTpIntra =
        (fb * terms.tpIntraLayer * layers * stage_overlap).value();
    bd.commTpInter =
        (fb * terms.tpInterLayer * layers * stage_overlap).value();
    bd.commPp = (fb * terms.ppLayer * layers * options_.ppCommMultiplier)
                    .value();
    bd.commMoe = (fb * terms.moeForward * stage_overlap).value();

    // --- Gradient all-reduce (Eq. 10-11).
    bd.commGradIntra = terms.gradIntra.value();
    bd.commGradInter = terms.gradInter.value();

    // --- Pipeline bubble (Eq. 8): R (N_PP - 1)/N_ub times the useful
    // per-batch step work (compute already scaled by all workers,
    // plus forward+backward communication).
    if (mapping.pp() > 1) {
        const double useful =
            bd.computeForward + bd.computeBackward + bd.commTpIntra +
            bd.commTpInter + bd.commPp + bd.commMoe;
        bd.bubble = options_.bubbleOverlapRatio * (pp - 1.0) /
                    terms.numMicrobatches * useful;
    }

    EvaluationResult result;
    result.perBatch = bd;
    result.timePerBatch = bd.total();
    result.numBatches = terms.numBatches;
    result.totalTime = result.numBatches * result.timePerBatch;
    result.microbatchSize = terms.microbatchSize;
    result.numMicrobatches = terms.numMicrobatches;
    result.efficiency = terms.efficiency;
    result.achievedFlopsPerGpu =
        terms.modelFlops.value() / (result.timePerBatch * workers);
    result.tokensPerSecond =
        terms.batch * static_cast<double>(opCounter_.config().seqLength) /
        result.timePerBatch;
    return result;
}

} // namespace core
} // namespace amped

#endif // AMPED_CORE_AMPED_MODEL_HPP

#include "reference_model.hpp"

#include <exception>

#include "common/error.hpp"
#include "entry_bits.hpp"

namespace amped {
namespace testutil {

namespace {

/** How one evaluation ended: a result, or a thrown exception. */
struct Ending
{
    const char *category = "result"; ///< Or "UserError", "exception".
    std::string message;             ///< The exception's what().
    core::EvaluationResult result;
};

template <class Evaluate>
Ending
endingOf(Evaluate &&evaluate)
{
    Ending ending;
    try {
        ending.result = evaluate();
    } catch (const UserError &e) {
        ending.category = "UserError";
        ending.message = e.what();
    } catch (const std::exception &e) {
        ending.category = "exception";
        ending.message = e.what();
    }
    return ending;
}

} // namespace

core::EvaluationResult
referenceEvaluate(const core::AmpedModel &model,
                  const mapping::ParallelismConfig &mapping,
                  const core::TrainingJob &job)
{
    const auto &options = model.options();
    mapping.validateFor(model.system());
    job.validate();

    const auto &cfg = model.opCounter().config();
    const double batch = job.batchSize;
    const double ub = job.microbatching.microbatchSize(batch, mapping);
    const double n_ub =
        job.microbatching.numMicrobatches(batch, mapping);
    const double eff = model.efficiency()(ub);
    const double workers = static_cast<double>(mapping.totalWorkers());

    // Activation traffic is per DP replica: replicas communicate in
    // parallel (DESIGN.md Sec. 3).
    const double replica_batch =
        batch / static_cast<double>(mapping.dp());

    core::Breakdown bd;

    // --- Computation (Eq. 2-4, Eq. 12), scaled by all workers (Eq. 1).
    // Breakdown is a plain-double reporting struct, so typed Seconds
    // unwrap via .value() at the assignment boundary.
    Seconds fwd_total{0.0};
    Seconds update_total{0.0};
    for (std::int64_t l = 0; l < cfg.numLayers; ++l) {
        fwd_total += model.forwardComputeTime(l, batch, eff);
        update_total += model.weightUpdateTime(l, eff);
    }
    bd.computeForward = (fwd_total / workers).value();
    bd.computeBackward =
        (options.backwardComputeMultiplier * fwd_total / workers)
            .value();
    bd.weightUpdate = (update_total / workers).value();

    // --- Forward communication (Eq. 5-7, 9) summed over layers.
    const double zero_factor = 1.0 + options.zeroDpOverhead;
    const double bwd_factor = options.backwardCommMultiplier;
    const double layers = static_cast<double>(cfg.numLayers);

    const Seconds tp_intra_layer =
        model.tpIntraCommTime(mapping, replica_batch);
    const Seconds tp_inter_layer =
        model.tpInterCommTime(mapping, replica_batch);
    const Seconds pp_layer = model.ppCommTime(mapping, replica_batch);

    Seconds moe_total_fwd{0.0};
    for (std::int64_t l = 0; l < cfg.numLayers; ++l)
        moe_total_fwd += model.moeCommTime(l, replica_batch);

    // With pipelining, each stage owns L / N_PP layers and the
    // stages' per-layer all-reduces run concurrently, so the
    // wall-clock sum over layers is scaled by 1 / N_PP — the same
    // concurrency the paper's Eq. 7 encodes via its 1/L factor
    // (DESIGN.md Sec. 3).  PP hop communication is already a single
    // boundary's traffic after the 1/L scaling, so it is not scaled
    // again.
    const double stage_overlap =
        1.0 / static_cast<double>(mapping.pp());
    const double fb = zero_factor * (1.0 + bwd_factor);
    bd.commTpIntra =
        (fb * tp_intra_layer * layers * stage_overlap).value();
    bd.commTpInter =
        (fb * tp_inter_layer * layers * stage_overlap).value();
    bd.commPp =
        (fb * pp_layer * layers * options.ppCommMultiplier).value();
    bd.commMoe = (fb * moe_total_fwd * stage_overlap).value();

    // --- Gradient all-reduce (Eq. 10-11) summed over layers.
    for (std::int64_t l = 0; l < cfg.numLayers; ++l) {
        Seconds intra{0.0}, inter{0.0};
        model.gradCommTime(mapping, l, intra, inter);
        bd.commGradIntra += intra.value();
        bd.commGradInter += inter.value();
    }

    // --- Pipeline bubble (Eq. 8): R (N_PP - 1)/N_ub times the useful
    // per-batch step work (compute already scaled by all workers,
    // plus forward+backward communication).
    if (mapping.pp() > 1) {
        const double useful =
            bd.computeForward + bd.computeBackward + bd.commTpIntra +
            bd.commTpInter + bd.commPp + bd.commMoe;
        bd.bubble = options.bubbleOverlapRatio *
                    (static_cast<double>(mapping.pp()) - 1.0) / n_ub *
                    useful;
    }

    core::EvaluationResult result;
    result.perBatch = bd;
    result.timePerBatch = bd.total();
    result.numBatches = job.numBatches(cfg.seqLength);
    result.totalTime = result.numBatches * result.timePerBatch;
    result.microbatchSize = ub;
    result.numMicrobatches = n_ub;
    result.efficiency = eff;
    result.achievedFlopsPerGpu =
        model.opCounter().modelFlopsPerBatch(batch) /
        (result.timePerBatch * workers);
    result.tokensPerSecond =
        batch * static_cast<double>(cfg.seqLength) /
        result.timePerBatch;
    return result;
}

std::string
evaluateMismatch(const core::AmpedModel &model,
                 const mapping::ParallelismConfig &mapping,
                 const core::TrainingJob &job)
{
    const Ending got =
        endingOf([&] { return model.evaluate(mapping, job); });
    const Ending want =
        endingOf([&] { return referenceEvaluate(model, mapping, job); });
    if (std::string(got.category) != want.category ||
        got.message != want.message)
        return std::string("evaluate() ended in ") + got.category +
               " '" + got.message + "', the reference in " +
               want.category + " '" + want.message + "'";
    const auto bits_of = [&](const core::EvaluationResult &result) {
        return entryBits(explore::SweepEntry{mapping, job.batchSize,
                                             result});
    };
    if (bits_of(got.result) != bits_of(want.result))
        return "evaluate()'s result differs from the reference's in "
               "some field's bits";
    return "";
}

} // namespace testutil
} // namespace amped

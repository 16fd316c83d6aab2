#include "amped_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/compute_cost.hpp"
#include "net/collectives.hpp"

namespace amped {
namespace core {

double
EvaluationResult::trainingDays() const
{
    return totalTime / units::day;
}

AmpedModel::AmpedModel(model::TransformerConfig model_config,
                       hw::AcceleratorConfig accelerator,
                       hw::MicrobatchEfficiency efficiency,
                       net::SystemConfig system, ModelOptions options,
                       model::OpCountOptions op_options)
    : opCounter_(std::move(model_config), op_options),
      accel_(std::move(accelerator)), efficiency_(efficiency),
      system_(std::move(system)), options_(options)
{
    accel_.validate();
    links_ = system_.snapshot(); // Validates the system.
    require(options_.bubbleOverlapRatio >= 0.0,
            "bubbleOverlapRatio R must be non-negative, got ",
            options_.bubbleOverlapRatio);
    require(options_.zeroDpOverhead >= 0.0,
            "zeroDpOverhead must be non-negative, got ",
            options_.zeroDpOverhead);
    require(options_.backwardComputeMultiplier >= 0.0,
            "backwardComputeMultiplier must be non-negative");
    require(options_.backwardCommMultiplier >= 0.0,
            "backwardCommMultiplier must be non-negative");
    require(options_.ppCommMultiplier >= 1.0,
            "ppCommMultiplier must be >= 1, got ",
            options_.ppCommMultiplier);
}

Seconds
AmpedModel::forwardComputeTime(std::int64_t layer, double batch,
                               double efficiency_value) const
{
    return layerForwardComputeTime(opCounter_, accel_,
                                   efficiency_value, layer, batch);
}

Seconds
AmpedModel::weightUpdateTime(std::int64_t layer,
                             double efficiency_value) const
{
    return layerWeightUpdateTime(opCounter_, accel_, efficiency_value,
                                 layer);
}

Seconds
AmpedModel::tpIntraCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const
{
    if (mapping.tpIntra <= 1)
        return Seconds{0.0};
    const double n_act =
        opCounter_.activationsTensorParallel(replica_batch);
    const Bits s_act = accel_.precisions.activationBits;
    return net::allReduceTime(mapping.tpIntra, n_act, s_act,
                              links_.intraLink,
                              options_.intraTopologyFactorOverride);
}

Seconds
AmpedModel::tpInterCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const
{
    if (mapping.tpInter <= 1)
        return Seconds{0.0};
    const double n_act =
        opCounter_.activationsTensorParallel(replica_batch);
    const Bits s_act = accel_.precisions.activationBits;
    return net::allReduceTime(mapping.tpInter, n_act, s_act,
                              links_.interEffective,
                              options_.interTopologyFactorOverride);
}

Seconds
AmpedModel::ppCommTime(const mapping::ParallelismConfig &mapping,
                       double replica_batch) const
{
    const double layers =
        static_cast<double>(opCounter_.config().numLayers);
    const double n_act =
        opCounter_.activationsPipelineParallel(replica_batch);
    const Bits s_act = accel_.precisions.activationBits;

    Seconds intra{0.0};
    if (mapping.ppIntra > 1) {
        intra = net::pointToPointTime(n_act, s_act, links_.intraLink) /
                layers;
    }
    Seconds inter{0.0};
    if (mapping.ppInter > 1) {
        // A pipeline hop is node-to-node: every NIC participates
        // (scatter-gather of the activation slices), so the hop sees
        // the node-aggregate bandwidth rather than one stream's
        // share.
        inter = net::pointToPointTime(n_act, s_act, links_.interHop) /
                layers;
    }
    return std::max(intra, inter);
}

Seconds
AmpedModel::moeCommTime(std::int64_t layer, double replica_batch) const
{
    if (!options_.enableMoeComm)
        return Seconds{0.0};
    const double n_act = opCounter_.activationsMoe(layer, replica_batch);
    if (n_act == 0.0)
        return Seconds{0.0};
    const Bits s_act = accel_.precisions.activationBits;
    // Two all-to-all exchanges per expert layer (dispatch +
    // combine).  On a pooled fabric (photonic substrate) the
    // exchange sees the node-aggregate bandwidth; with conventional
    // per-accelerator NICs each exchange stream rides its own NIC.
    const BitsPerSecond inter_bw = links_.interIsPooledFabric
                                       ? links_.interBandwidth
                                       : links_.perStreamInterBandwidth;
    return 2.0 * net::allToAllTime(links_.numNodes, n_act, s_act,
                                   links_.intraLink, links_.interLatency,
                                   inter_bw);
}

Seconds
AmpedModel::gradCommTime(const mapping::ParallelismConfig &mapping,
                         std::int64_t layer, Seconds &intra_part,
                         Seconds &inter_part) const
{
    intra_part = Seconds{0.0};
    inter_part = Seconds{0.0};
    if (mapping.dp() <= 1)
        return Seconds{0.0};

    // Gradients of layer l are sharded across TP ranks and live on a
    // single pipeline stage; stages reduce concurrently, so the
    // per-layer share is N_g / (N_TP N_PP) (DESIGN.md Sec. 3), with
    // N_g accounting for expert-parallel sharding on MoE layers.
    const double n_g = opCounter_.gradientsPerLayer(layer) /
                       static_cast<double>(mapping.tp() * mapping.pp());
    const Bits s_g = options_.gradientBits > Bits{0.0}
                         ? options_.gradientBits
                         : accel_.precisions.parameterBits;

    if (options_.hierarchicalGradAllReduce) {
        intra_part = net::allReduceTime(
            mapping.dpIntra, n_g, s_g, links_.intraLink,
            options_.intraTopologyFactorOverride);
        inter_part = net::allReduceTime(
            mapping.dpInter, n_g, s_g, links_.interEffective,
            options_.interTopologyFactorOverride);
    } else {
        // Ablation: one flat all-reduce over every DP rank on the
        // slower inter-node tier.
        inter_part = net::allReduceTime(
            mapping.dp(), n_g, s_g, links_.interEffective,
            options_.interTopologyFactorOverride);
    }
    return intra_part + inter_part;
}

EvaluationResult
AmpedModel::evaluate(const mapping::ParallelismConfig &mapping,
                     const TrainingJob &job) const
{
    mapping.validateFor(system_);
    job.validate();

    const auto &cfg = opCounter_.config();
    PointTerms terms;
    terms.batch = job.batchSize;
    terms.microbatchSize =
        job.microbatching.microbatchSize(terms.batch, mapping);
    terms.numMicrobatches =
        job.microbatching.numMicrobatches(terms.batch, mapping);
    terms.efficiency = efficiency_(terms.microbatchSize);

    // Activation traffic is per DP replica: replicas communicate in
    // parallel (DESIGN.md Sec. 3).
    const double replica_batch =
        terms.batch / static_cast<double>(mapping.dp());

    // --- Computation (Eq. 2-4, Eq. 12) summed over layers.
    for (std::int64_t l = 0; l < cfg.numLayers; ++l) {
        terms.forwardCompute +=
            forwardComputeTime(l, terms.batch, terms.efficiency);
        terms.weightUpdate += weightUpdateTime(l, terms.efficiency);
    }

    // --- Forward communication (Eq. 5-7, 9).
    terms.tpIntraLayer = tpIntraCommTime(mapping, replica_batch);
    terms.tpInterLayer = tpInterCommTime(mapping, replica_batch);
    terms.ppLayer = ppCommTime(mapping, replica_batch);
    for (std::int64_t l = 0; l < cfg.numLayers; ++l)
        terms.moeForward += moeCommTime(l, replica_batch);

    // --- Gradient all-reduce (Eq. 10-11) summed over layers.
    for (std::int64_t l = 0; l < cfg.numLayers; ++l) {
        Seconds intra{0.0}, inter{0.0};
        gradCommTime(mapping, l, intra, inter);
        terms.gradIntra += intra;
        terms.gradInter += inter;
    }

    terms.numBatches = job.numBatches(cfg.seqLength);
    terms.modelFlops = Flops{opCounter_.modelFlopsPerBatch(terms.batch)};
    return assemble(mapping, terms);
}

} // namespace core
} // namespace amped

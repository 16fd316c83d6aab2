#include "memory_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace amped {
namespace core {

std::string
zeroStageName(ZeroStage stage)
{
    switch (stage) {
      case ZeroStage::none:
        return "plain-DP";
      case ZeroStage::optimizer:
        return "ZeRO-1";
      case ZeroStage::gradients:
        return "ZeRO-2";
      case ZeroStage::parameters:
        return "ZeRO-3";
    }
    AMPED_ASSERT(false, "unknown ZeroStage enumerator");
    return {};
}

double
zeroCommOverhead(ZeroStage stage)
{
    return stage == ZeroStage::parameters ? 0.5 : 0.0;
}

double
MemoryFootprint::totalBytes() const
{
    return parameterBytes + gradientBytes + optimizerBytes +
           activationBytes + workspaceBytes;
}

MemoryModel::MemoryModel(model::OpCounter counter,
                         hw::AcceleratorConfig accel,
                         MemoryOptions options)
    : counter_(std::move(counter)), accel_(std::move(accel)),
      options_(options)
{
    accel_.validate();
    require(options_.optimizerBytesPerParam >= 0.0,
            "optimizerBytesPerParam must be non-negative");
    require(options_.workspaceBytes >= 0.0,
            "workspaceBytes must be non-negative");
    // The layer sum depends on no mapping, so it is taken once here,
    // in layer order; residentParameters() only divides it.
    const std::int64_t layers = counter_.config().numLayers;
    for (std::int64_t l = 0; l < layers; ++l)
        layerParameters_ += counter_.gradientsPerLayer(l);
}

double
MemoryModel::residentParameters(const DegreeShape &shape) const
{
    const auto &cfg = counter_.config();
    // Layer weights are sharded across TP ranks; the layer stack is
    // split across PP stages; expert banks are sharded across the
    // cluster, so a device holds ~1/E of each expert bank's weights
    // (mirroring OpCounter::gradientsPerLayer).
    double resident = layerParameters_ /
                      static_cast<double>(shape.tp * shape.pp);
    // Embeddings live on the first/last stage; amortize per device.
    resident += static_cast<double>(cfg.vocabSize + cfg.seqLength) *
                static_cast<double>(cfg.hiddenSize) /
                static_cast<double>(shape.tp * shape.pp);
    return resident;
}

double
MemoryModel::activationBytesPerMicrobatch(const DegreeShape &shape,
                                          double microbatch) const
{
    const auto &cfg = counter_.config();
    const double s = static_cast<double>(cfg.seqLength);
    const double h = static_cast<double>(cfg.hiddenSize);
    const double ffn = static_cast<double>(cfg.ffnHiddenSize);
    const double a = static_cast<double>(cfg.numHeads);
    const double act_bytes =
        accel_.precisions.activationBits.value() / units::bitsPerByte;

    const double layers_per_stage =
        static_cast<double>(cfg.numLayers) /
        static_cast<double>(shape.pp);

    double per_layer_elements;
    if (options_.activationRecompute) {
        // Only the layer input is checkpointed.
        per_layer_elements = microbatch * s * h;
    } else {
        // Attention (qkv 3bsh + scores b a s^2 + context bsh) + MLP
        // (inner b s ffn + output bsh) + 2 norms.
        per_layer_elements =
            microbatch * s * (3.0 * h + h + ffn + h + 2.0 * h) +
            microbatch * a * s * s;
    }
    // Activations are sharded across TP ranks.
    return per_layer_elements * layers_per_stage * act_bytes /
           static_cast<double>(shape.tp);
}

MemoryFootprint
MemoryModel::footprint(const mapping::ParallelismConfig &mapping,
                       double batch, double microbatch) const
{
    mapping.validate();
    return footprint(DegreeShape::of(mapping), batch, microbatch);
}

MemoryFootprint
MemoryModel::footprint(const DegreeShape &shape, double batch,
                       double microbatch) const
{
    if (!(shape.tp >= 1 && shape.pp >= 1 && shape.dp >= 1))
        fatal("memory footprint: degrees must all be >= 1 (tp ",
              shape.tp, ", pp ", shape.pp, ", dp ", shape.dp, ")");
    require(batch >= 1.0, "memory footprint: batch must be >= 1");
    require(microbatch >= 1.0,
            "memory footprint: microbatch must be >= 1");
    require(microbatch <= batch,
            "memory footprint: microbatch exceeds batch");

    const double params = residentParameters(shape);
    const double dp = static_cast<double>(shape.dp);
    const double param_bytes_each =
        accel_.precisions.parameterBits.value() / units::bitsPerByte;

    MemoryFootprint fp;
    fp.parameterBytes = params * param_bytes_each;
    fp.gradientBytes = params * param_bytes_each;
    fp.optimizerBytes = params * options_.optimizerBytesPerParam;

    switch (options_.zeroStage) {
      case ZeroStage::none:
        break;
      case ZeroStage::parameters:
        fp.parameterBytes /= dp;
        [[fallthrough]];
      case ZeroStage::gradients:
        fp.gradientBytes /= dp;
        [[fallthrough]];
      case ZeroStage::optimizer:
        fp.optimizerBytes /= dp;
        break;
    }

    double in_flight = options_.activationsInFlightOverride;
    if (in_flight <= 0.0) {
        in_flight = shape.pp > 1 ? static_cast<double>(shape.pp) : 1.0;
    }
    fp.activationBytes =
        activationBytesPerMicrobatch(shape, microbatch) * in_flight;
    fp.workspaceBytes = options_.workspaceBytes;
    return fp;
}

bool
MemoryModel::fits(const mapping::ParallelismConfig &mapping,
                  double batch, double microbatch) const
{
    return footprint(mapping, batch, microbatch).totalBytes() <=
           accel_.memoryBytes;
}

bool
MemoryModel::fits(const DegreeShape &shape, double batch,
                  double microbatch) const
{
    return footprint(shape, batch, microbatch).totalBytes() <=
           accel_.memoryBytes;
}

double
MemoryModel::largestFittingMicrobatch(
    const mapping::ParallelismConfig &mapping, double batch) const
{
    const double per_replica = batch / static_cast<double>(mapping.dp());
    double best = 0.0;
    for (double ub = 1.0; ub <= per_replica; ub *= 2.0) {
        if (fits(mapping, batch, ub))
            best = ub;
        else
            break;
    }
    return best;
}

} // namespace core
} // namespace amped

/**
 * @file
 * Per-accelerator memory-footprint model.
 *
 * The paper incorporates memory constraints only implicitly, through
 * the fitted microbatch-efficiency curve, and names a comprehensive
 * memory model as future work (Sec. IX).  This module is that
 * extension: it predicts the per-device memory footprint of a
 * (model, mapping, job) triple — parameters, gradients, optimizer
 * state, and activations — including the ZeRO partitioning stages
 * and activation recomputation, and turns it into a feasibility
 * check for design-space exploration.
 *
 * Footprint components, for P parameters resident on a device:
 *
 *  - parameters: P x parameter precision (fp16 working copy);
 *  - gradients:  P x gradient precision;
 *  - optimizer:  Adam keeps an fp32 master copy plus two fp32
 *    moments (12 bytes per parameter by default);
 *  - activations: per microbatch in flight, each layer's
 *    intermediate tensors (attention + MLP + norms); with
 *    recomputation only layer-boundary activations are stored.
 *
 * ZeRO stages shard across the DP group: stage 1 shards the
 * optimizer state, stage 2 also gradients, stage 3 also parameters
 * (Rajbhandari et al. [17]).
 */

#ifndef AMPED_CORE_MEMORY_MODEL_HPP
#define AMPED_CORE_MEMORY_MODEL_HPP

#include <cstdint>
#include <string>

#include "hw/accelerator.hpp"
#include "mapping/parallelism.hpp"
#include "model/op_counter.hpp"

namespace amped {
namespace core {

/** ZeRO partitioning stage (0 = plain data parallelism). */
enum class ZeroStage
{
    none,      ///< Replicated parameters, gradients and optimizer.
    optimizer, ///< Stage 1: optimizer state sharded across DP.
    gradients, ///< Stage 2: + gradients sharded.
    parameters ///< Stage 3: + parameters sharded.
};

/** Returns a short display name ("ZeRO-2", ...). */
std::string zeroStageName(ZeroStage stage);

/**
 * The forward/backward communication overhead factor M_f_DP of Eq. 5
 * implied by a ZeRO stage: stages 1 and 2 add no forward/backward
 * traffic; stage 3 re-gathers parameters in both passes, a ~50 %
 * communication increase (Rajbhandari et al. [17]).
 */
double zeroCommOverhead(ZeroStage stage);

/** Memory-model knobs. */
struct MemoryOptions
{
    /** ZeRO partitioning stage applied across the DP group. */
    ZeroStage zeroStage = ZeroStage::none;

    /** Bytes of optimizer state per parameter (Adam: 4+4+4). */
    double optimizerBytesPerParam = 12.0;

    /**
     * Store only layer-boundary activations and recompute the rest
     * in the backward pass (Megatron-style checkpointing).
     */
    bool activationRecompute = true;

    /**
     * Microbatches whose activations are simultaneously alive.  0
     * derives it from the schedule: N_PP for a GPipe-style pipeline
     * (every in-flight microbatch holds its activations), 1 without
     * pipelining.
     */
    double activationsInFlightOverride = 0.0;

    /** Framework / workspace overhead added on top (bytes). */
    double workspaceBytes = 1.5e9;
};

/**
 * Everything a footprint reads of a mapping: its total tensor-,
 * pipeline- and data-parallel degrees.  The intra/inter split does
 * not change the footprint, so mappings of one shape share it, and a
 * table of footprint outcomes keyed by the shape (with the batch and
 * microbatch size) is complete: were the footprint to read another
 * field of the mapping, that field would join this struct, and every
 * such key with it.
 */
struct DegreeShape
{
    std::int64_t tp = 1; ///< N_TP.
    std::int64_t pp = 1; ///< N_PP.
    std::int64_t dp = 1; ///< N_DP.

    /** The shape of @p mapping (not validated). */
    static DegreeShape of(const mapping::ParallelismConfig &mapping)
    {
        return {mapping.tp(), mapping.pp(), mapping.dp()};
    }

    bool operator==(const DegreeShape &) const = default;
};

/** Byte-level breakdown of one accelerator's footprint. */
struct MemoryFootprint
{
    double parameterBytes = 0.0;
    double gradientBytes = 0.0;
    double optimizerBytes = 0.0;
    double activationBytes = 0.0;
    double workspaceBytes = 0.0;

    /** Sum of all components. */
    double totalBytes() const;
};

/**
 * Computes per-accelerator memory footprints for mappings of a
 * transformer model.
 *
 * Thread safety: immutable after construction; footprint() / fits()
 * are const with no hidden state and safe to call concurrently
 * (the sweep kernel fills its memory table on a shared instance).
 *
 * The per-layer parameter sum does not depend on the mapping, so the
 * constructor takes it once (in layer order) and every footprint()
 * reuses it: a screen over a million grid points pays for the layer
 * loop once, not once per point.
 */
class MemoryModel
{
  public:
    /**
     * @param counter Operation/element counter of the model (copied;
     *        it is a small value type).
     * @param accel Accelerator (provides capacity and precisions).
     * @param options Memory-model knobs.
     */
    MemoryModel(model::OpCounter counter, hw::AcceleratorConfig accel,
                MemoryOptions options = {});

    /**
     * Footprint of one accelerator under @p mapping with global
     * batch @p batch and microbatch size @p microbatch: validates
     * the mapping, then takes its shape's footprint.
     */
    MemoryFootprint footprint(const mapping::ParallelismConfig &mapping,
                              double batch, double microbatch) const;

    /**
     * Footprint of one accelerator of a mapping with degrees
     * @p shape.
     *
     * @throws UserError when a degree is below 1.
     */
    MemoryFootprint footprint(const DegreeShape &shape, double batch,
                              double microbatch) const;

    /**
     * True when the footprint fits the accelerator's memory.
     */
    bool fits(const mapping::ParallelismConfig &mapping, double batch,
              double microbatch) const;

    /** fits() for a mapping with degrees @p shape. */
    bool fits(const DegreeShape &shape, double batch,
              double microbatch) const;

    /**
     * Largest power-of-two microbatch that fits, or 0 when even
     * microbatch 1 overflows.
     */
    double largestFittingMicrobatch(
        const mapping::ParallelismConfig &mapping, double batch) const;

    /** The options in use. */
    const MemoryOptions &options() const { return options_; }

  private:
    /** Parameters resident on one device (TP/PP/expert sharded). */
    double residentParameters(const DegreeShape &shape) const;

    /** Activation bytes for one microbatch on one device. */
    double activationBytesPerMicrobatch(const DegreeShape &shape,
                                        double microbatch) const;

    model::OpCounter counter_;
    hw::AcceleratorConfig accel_;
    MemoryOptions options_;
    /** Sum over layers of OpCounter::gradientsPerLayer, in order. */
    double layerParameters_ = 0.0;
};

} // namespace core
} // namespace amped

#endif // AMPED_CORE_MEMORY_MODEL_HPP

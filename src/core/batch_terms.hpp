/**
 * @file
 * Batch-friendly, memoized evaluation of the AMPeD model terms.
 *
 * The design-space sweeps (paper Sec. VI) evaluate the same additive
 * model at up to millions of (mapping, job) grid points.  The scalar
 * evaluator (core::AmpedModel::evaluate) re-derives every per-layer
 * sum — forward compute, weight update, MoE all-to-all, gradient
 * all-reduce — from scratch at every point, allocating a
 * std::vector<SublayerOps> per layer per point.  Across a grid those
 * sums only depend on a handful of distinct inputs:
 *
 *   - forward compute:   (global batch, eff(ub))
 *   - weight update:     eff(ub)
 *   - MoE forward comm:  per-replica batch
 *   - gradient comm:     (N_TP * N_PP, dpIntra, dpInter)
 *   - model FLOPs:       global batch
 *
 * SweepTermCache computes each registered sum once (in parallel) and
 * serves the results to the sweep kernel (explore/sweep_kernel.cpp)
 * as O(1) array lookups.  The MoE, gradient and FLOP keys are
 * deduplicated here; forward-compute and weight-update entries are
 * registered positionally, one per call, because the kernel already
 * registers each (job, efficiency) pair once.
 *
 * Every per-layer term depends on the layer index only through
 * TransformerConfig::isMoeLayer, so the cache sorts the layers into
 * classes (dense, MoE) in first-seen order, computes one per-layer
 * value per class, and replays the scalar path's += over the layers
 * in layer order.  The same values are added in the same order, so
 * the sums carry the same bits; classes are evaluated in first-seen
 * layer order, so a term that throws does so at the same first layer
 * with the same message.
 *
 * Bit-exactness contract: every cached value is produced by the same
 * floating-point operations, in the same order, on the same inputs as
 * the scalar evaluator — per-layer sub-accumulators included — so a
 * sweep evaluated through this cache is byte-identical to one
 * evaluated through AmpedModel::evaluate.  tests/test_explore_batch.cpp
 * asserts this property over randomized grids against a per-point
 * evaluate() loop (tests/reference_sweep.hpp); the goldens pin it for
 * the paper's case studies.  Any change to the scalar term order must
 * be mirrored here (and vice versa), or the property test fails.
 *
 * Failure semantics: registration never throws.  If computing a
 * cached sum throws (the scalar path would throw the same exception
 * at every point sharing the inputs), the entry is poisoned and the
 * lookup rethrows an exception of the same category (UserError vs
 * other) with the same message, so the sweep kernel classifies the
 * point exactly as a per-point evaluate() call would (skip vs
 * NaN-pin).
 *
 * Thread safety: construction and register*() calls are
 * single-threaded; prime() fills all registered entries (internally
 * parallel); after prime() returns, every lookup and per-point term
 * function is const and safe to call concurrently.
 */

#ifndef AMPED_CORE_BATCH_TERMS_HPP
#define AMPED_CORE_BATCH_TERMS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.hpp"
#include "core/amped_model.hpp"
#include "hw/accelerator.hpp"
#include "net/system_config.hpp"

namespace amped {
namespace core {

/**
 * Memoized per-term evaluator for batched sweeps.  See the file
 * comment for the contract.
 */
class SweepTermCache
{
  public:
    /** Accumulated gradient all-reduce times (Eq. 10-11). */
    struct GradTotals
    {
        Seconds intra{0.0}; ///< Sum over layers of the intra stage.
        Seconds inter{0.0}; ///< Sum over layers of the inter stage.
    };

    /**
     * @param model The evaluator whose terms are cached.  The model
     *        must outlive the cache (the cache keeps references).
     */
    explicit SweepTermCache(const AmpedModel &model);

    // -----------------------------------------------------------------
    // Registration: return a stable entry id.  Single-threaded; ids
    // are valid after the next prime() call.
    // -----------------------------------------------------------------

    /**
     * Sum over layers of U_f(l, batch, eff) (Eq. 2).  Every call adds
     * an entry (callers deduplicate); entries of one batch share that
     * batch's op table.
     */
    std::size_t registerForwardCompute(double batch, double eff);

    /** Sum over layers of U_w(l, eff) (Eq. 12); one entry per call. */
    std::size_t registerWeightUpdate(double eff);

    /**
     * Sum over layers of M_f,MoE(l, replica_batch) (Eq. 9), deduplicated
     * by value.
     */
    std::size_t registerMoeForward(double replica_batch);

    /**
     * Sums over layers of the gradient all-reduce (Eq. 10-11),
     * deduplicated by (N_TP * N_PP, dpIntra, dpInter).
     */
    std::size_t registerGrad(const mapping::ParallelismConfig &mapping);

    /** OpCounter::modelFlopsPerBatch(batch), deduplicated by value. */
    std::size_t registerModelFlops(double batch);

    /**
     * Computes every registered entry that has not been primed yet.
     * Parallelized on the shared ThreadPool (results are
     * deterministic: each entry is an independent pure computation).
     *
     * Cancellable: @p token is polled between phases and between
     * parallelFor chunks.  On a stop, unfilled entries stay pending —
     * a later prime() (with a fresh token) completes them; lookups
     * before that assert.  Inert token = always Completed.
     *
     * @param max_workers Parallelism cap (0 = whole pool).
     */
    RunStatus prime(unsigned max_workers = 0,
                    const CancelToken &token = {});

    // -----------------------------------------------------------------
    // Lookups: const, thread-safe after prime().  Poisoned entries
    // rethrow the recorded failure (same category and message the
    // scalar path would produce).
    // -----------------------------------------------------------------

    Seconds forwardComputeTotal(std::size_t id) const;
    Seconds weightUpdateTotal(std::size_t id) const;
    Seconds moeForwardTotal(std::size_t id) const;
    GradTotals gradTotals(std::size_t id) const;
    double modelFlopsPerBatch(std::size_t id) const;

    // -----------------------------------------------------------------
    // Probes: non-throwing variants of the lookups above for the
    // branch-and-bound optimizer's bound assembly (explore/optimizer).
    // A bound computation touches every registered entry of a search
    // cell, including poisoned ones; probes report the recorded
    // outcome as a status instead of rethrowing so the optimizer can
    // classify the cell (evaluate everything vs provably infeasible)
    // without exception round-trips.
    // -----------------------------------------------------------------

    /** How a probed entry's computation ended. */
    enum class LookupStatus : std::uint8_t
    {
        ok,        ///< value (and value2 for grad) valid.
        userError, ///< The throwing lookup raises UserError.
        error      ///< The throwing lookup raises std::runtime_error.
    };

    /** Non-throwing lookup result. */
    struct Probe
    {
        LookupStatus status = LookupStatus::ok;
        double value = 0.0;  ///< Same scalar the lookup returns.
        double value2 = 0.0; ///< Grad inter sum; unused otherwise.
    };

    Probe probeForwardCompute(std::size_t id) const;
    Probe probeWeightUpdate(std::size_t id) const;
    Probe probeMoeForward(std::size_t id) const;
    Probe probeGrad(std::size_t id) const;

    // -----------------------------------------------------------------
    // Per-point terms: cheap closed forms with no layer loop, computed
    // from the const parameter snapshots.  Bit-exact mirrors of the
    // corresponding AmpedModel member functions.
    // -----------------------------------------------------------------

    /** Mirrors AmpedModel::tpIntraCommTime. */
    Seconds tpIntraCommTime(std::int64_t tp_intra,
                            double replica_batch) const;

    /** Mirrors AmpedModel::tpInterCommTime. */
    Seconds tpInterCommTime(std::int64_t tp_inter,
                            double replica_batch) const;

    /** Mirrors AmpedModel::ppCommTime. */
    Seconds ppCommTime(std::int64_t pp_intra, std::int64_t pp_inter,
                       double replica_batch) const;

    /** The model whose terms are cached. */
    const AmpedModel &model() const { return model_; }

  private:
    /** How a cached computation ended. */
    enum class Outcome : std::uint8_t
    {
        pending,   ///< Registered, not primed yet.
        ok,        ///< value fields valid.
        userError, ///< Scalar path throws UserError(message).
        error      ///< Scalar path throws std::runtime_error(message).
    };

    /** One memoized sum (two values cover the two-part grad case). */
    struct Entry
    {
        double keyA = 0.0; ///< First input (batch / eff / replica...).
        double keyB = 0.0; ///< Second input when the key is a pair.
        double value = 0.0;
        double value2 = 0.0;
        Outcome outcome = Outcome::pending;
        std::string message;
    };

    /** Exact-match dedup key over three integers. */
    struct TripleKey
    {
        std::int64_t a = 0, b = 0, c = 0;
        bool operator==(const TripleKey &o) const
        {
            return a == o.a && b == o.b && c == o.c;
        }
    };
    struct TripleKeyHash
    {
        std::size_t operator()(const TripleKey &k) const;
    };

    /** Per-sublayer constants of one layer's forward pass. */
    struct OpTerm
    {
        double macs2 = 0.0;    ///< 2.0 * SublayerOps::macs.
        double nonlinear = 0.0; ///< SublayerOps::nonlinear.
    };

    /**
     * Per-batch forward-op constants, one layer's worth per layer
     * class (every layer of a class has the same ops).
     */
    struct OpsTable
    {
        double batch = 0.0;
        std::vector<OpTerm> terms; ///< Every class's ops, flattened.
        std::vector<std::uint32_t> classEnd; ///< End index per class.
        Outcome outcome = Outcome::pending;
        std::string message;
    };

    /** At most two layer classes: dense and MoE. */
    static constexpr std::size_t kMaxLayerClasses = 2;

    /**
     * Adds one per-class value per layer, in layer order: the scalar
     * path's per-layer += with the layer's value looked up by class.
     */
    template <typename T>
    T sumOverLayers(const std::array<T, kMaxLayerClasses> &per_class) const
    {
        T total{0.0};
        for (const std::uint8_t c : layerClass_)
            total += per_class[c];
        return total;
    }

    void primeOpsTable(OpsTable &table) const;
    void primeForwardCompute(Entry &entry) const;
    void primeWeightUpdate(Entry &entry) const;
    void primeMoeForward(Entry &entry) const;
    void primeGrad(Entry &entry) const;
    void primeModelFlops(Entry &entry) const;

    /** Rethrows a poisoned entry's recorded failure. */
    static void rethrow(const Entry &entry);

    const AmpedModel &model_;
    hw::ComputeRateSnapshot rates_;
    net::SystemSnapshot system_;

    // Layer classes, captured once at construction.
    std::vector<std::uint8_t> layerClass_; ///< Layer -> class index.
    std::vector<std::int64_t> classLayer_; ///< Class -> first layer.
    std::vector<double> weights2_; ///< 2.0 * weightsPerLayer, per class.
    bool moeActive_ = false; ///< enableMoeComm and >= 1 MoE layer.

    std::unordered_map<std::uint64_t, std::size_t> moeIds_;
    std::unordered_map<TripleKey, std::size_t, TripleKeyHash> gradIds_;
    std::unordered_map<std::uint64_t, std::size_t> flopsIds_;
    std::unordered_map<std::uint64_t, std::size_t> opsTableIds_;

    std::vector<Entry> forward_;
    std::vector<Entry> update_;
    std::vector<Entry> moe_;
    std::vector<Entry> grad_;
    std::vector<Entry> flops_;
    std::vector<OpsTable> opsTables_;
    std::vector<std::size_t> forwardOpsTable_; ///< forward id -> table.
    /** Representative mapping per grad entry (same key => same sums). */
    std::vector<mapping::ParallelismConfig> gradMappings_;
};

} // namespace core
} // namespace amped

#endif // AMPED_CORE_BATCH_TERMS_HPP

/**
 * @file
 * Tests for the per-accelerator memory-footprint model: component
 * accounting, ZeRO-stage sharding, activation recomputation, and
 * feasibility checks against real device capacities.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/memory_model.hpp"
#include "entry_bits.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"

namespace amped {
namespace core {
namespace {

MemoryModel
makeModel(MemoryOptions options = {})
{
    return MemoryModel(model::OpCounter(model::presets::minGpt85M()),
                       hw::presets::v100Sxm3(), options);
}

TEST(MemoryModelTest, ComponentsArePositiveAndSum)
{
    const auto mm = makeModel();
    const auto m = mapping::makeMapping(1, 1, 1, 1, 1, 1);
    const auto fp = mm.footprint(m, 32.0, 32.0);
    EXPECT_GT(fp.parameterBytes, 0.0);
    EXPECT_GT(fp.gradientBytes, 0.0);
    EXPECT_GT(fp.optimizerBytes, 0.0);
    EXPECT_GT(fp.activationBytes, 0.0);
    EXPECT_DOUBLE_EQ(fp.totalBytes(),
                     fp.parameterBytes + fp.gradientBytes +
                         fp.optimizerBytes + fp.activationBytes +
                         fp.workspaceBytes);
}

TEST(MemoryModelTest, AdamOptimizerDominatesParameters)
{
    const auto mm = makeModel();
    const auto fp = mm.footprint(
        mapping::makeMapping(1, 1, 1, 1, 1, 1), 8.0, 8.0);
    // 12 bytes of Adam state vs 2 bytes of fp16 weights.
    EXPECT_NEAR(fp.optimizerBytes / fp.parameterBytes, 6.0, 0.01);
}

TEST(MemoryModelTest, MinGptFitsV100And175BDoesNot)
{
    // minGPT-85M easily fits a 32 GB V100.
    EXPECT_TRUE(makeModel().fits(
        mapping::makeMapping(1, 1, 1, 1, 1, 1), 32.0, 32.0));

    // GPT-3 175B on one device is hopeless.
    MemoryModel big(model::OpCounter(model::presets::gpt3_175B()),
                    hw::presets::a100());
    EXPECT_FALSE(big.fits(mapping::makeMapping(1, 1, 1, 1, 1, 1),
                          1.0, 1.0));
}

TEST(MemoryModelTest, TensorAndPipelineShardingReduceFootprint)
{
    MemoryModel mm(model::OpCounter(model::presets::gpt3_175B()),
                   hw::presets::a100());
    const double solo =
        mm.footprint(mapping::makeMapping(1, 1, 1, 1, 1, 1), 64.0, 1.0)
            .parameterBytes;
    const double tp8 =
        mm.footprint(mapping::makeMapping(8, 1, 1, 1, 1, 1), 64.0, 1.0)
            .parameterBytes;
    const double tp8pp8 =
        mm.footprint(mapping::makeMapping(8, 1, 1, 1, 8, 1), 64.0, 1.0)
            .parameterBytes;
    EXPECT_NEAR(solo / tp8, 8.0, 0.01);
    EXPECT_NEAR(solo / tp8pp8, 64.0, 0.1);
}

TEST(MemoryModelTest, ZeroStagesShardProgressively)
{
    const auto m = mapping::makeMapping(1, 1, 4, 1, 1, 4); // DP 16
    MemoryOptions plain;
    MemoryOptions z1;
    z1.zeroStage = ZeroStage::optimizer;
    MemoryOptions z2;
    z2.zeroStage = ZeroStage::gradients;
    MemoryOptions z3;
    z3.zeroStage = ZeroStage::parameters;

    const auto fp0 = makeModel(plain).footprint(m, 64.0, 4.0);
    const auto fp1 = makeModel(z1).footprint(m, 64.0, 4.0);
    const auto fp2 = makeModel(z2).footprint(m, 64.0, 4.0);
    const auto fp3 = makeModel(z3).footprint(m, 64.0, 4.0);

    // Stage 1: optimizer / 16, rest unchanged.
    EXPECT_NEAR(fp1.optimizerBytes, fp0.optimizerBytes / 16.0, 1.0);
    EXPECT_DOUBLE_EQ(fp1.gradientBytes, fp0.gradientBytes);
    EXPECT_DOUBLE_EQ(fp1.parameterBytes, fp0.parameterBytes);
    // Stage 2: + gradients / 16.
    EXPECT_NEAR(fp2.gradientBytes, fp0.gradientBytes / 16.0, 1.0);
    EXPECT_DOUBLE_EQ(fp2.parameterBytes, fp0.parameterBytes);
    // Stage 3: + parameters / 16.
    EXPECT_NEAR(fp3.parameterBytes, fp0.parameterBytes / 16.0, 1.0);
    // Monotone total reduction.
    EXPECT_GT(fp0.totalBytes(), fp1.totalBytes());
    EXPECT_GT(fp1.totalBytes(), fp2.totalBytes());
    EXPECT_GT(fp2.totalBytes(), fp3.totalBytes());
}

TEST(MemoryModelTest, RecomputeShrinksActivations)
{
    MemoryOptions with;
    with.activationRecompute = true;
    MemoryOptions without;
    without.activationRecompute = false;
    const auto m = mapping::makeMapping(1, 1, 1, 1, 1, 1);
    const double stored =
        makeModel(with).footprint(m, 8.0, 8.0).activationBytes;
    const double full =
        makeModel(without).footprint(m, 8.0, 8.0).activationBytes;
    EXPECT_LT(stored, full / 5.0);
}

TEST(MemoryModelTest, PipelineKeepsMicrobatchesInFlight)
{
    // GPipe-style residency: PP > 1 keeps N_PP microbatches alive by
    // default.
    const auto mm = makeModel();
    const auto solo = mapping::makeMapping(1, 1, 1, 1, 1, 1);
    const auto pp4 = mapping::makeMapping(1, 4, 1, 1, 1, 1);
    const double a1 =
        mm.footprint(solo, 8.0, 2.0).activationBytes;
    const double a4 = mm.footprint(pp4, 8.0, 2.0).activationBytes;
    // 4 stages: 1/4 of the layers per stage x 4 in flight = same
    // per-device activation bytes as the solo run.
    EXPECT_NEAR(a4 / a1, 1.0, 0.01);

    MemoryOptions pinned;
    pinned.activationsInFlightOverride = 1.0; // 1F1B-style residency
    const double a4_1f1b =
        makeModel(pinned).footprint(pp4, 8.0, 2.0).activationBytes;
    EXPECT_NEAR(a4_1f1b / a1, 0.25, 0.01);
}

TEST(MemoryModelTest, LargestFittingMicrobatchIsPowerOfTwoAndFits)
{
    MemoryModel mm(model::OpCounter(model::presets::minGptPipeline()),
                   hw::presets::v100Sxm3());
    const auto m = mapping::makeMapping(1, 4, 1, 1, 1, 1);
    const double ub = mm.largestFittingMicrobatch(m, 256.0);
    EXPECT_GT(ub, 0.0);
    EXPECT_TRUE(mm.fits(m, 256.0, ub));
    if (2.0 * ub <= 256.0) {
        EXPECT_FALSE(mm.fits(m, 256.0, 2.0 * ub));
    }
}

TEST(MemoryModelTest, MoEExpertsShardAcrossCluster)
{
    MemoryModel moe(model::OpCounter(model::presets::glamMoE()),
                    hw::presets::h100());
    const auto fp = moe.footprint(
        mapping::makeMapping(8, 1, 1, 1, 1, 384), 8192.0, 2.0);
    // With expert sharding the resident parameters are a small
    // fraction of the 1.2 T total.
    const double resident_params = fp.parameterBytes / 2.0; // fp16
    EXPECT_LT(resident_params,
              model::presets::glamMoE().parameterCount() / 100.0);
}

TEST(MemoryModelTest, RejectsBadArguments)
{
    const auto mm = makeModel();
    const auto m = mapping::makeMapping(1, 1, 1, 1, 1, 1);
    EXPECT_THROW(mm.footprint(m, 0.0, 1.0), UserError);
    EXPECT_THROW(mm.footprint(m, 8.0, 0.0), UserError);
    EXPECT_THROW(mm.footprint(m, 8.0, 16.0), UserError);
    MemoryOptions bad;
    bad.optimizerBytesPerParam = -1.0;
    EXPECT_THROW(makeModel(bad), UserError);
}

using testutil::bits;

/**
 * The footprint arithmetic with the per-layer parameter loop run on
 * every call: the reference MemoryModel's cached layer sum must match
 * bit for bit.
 */
MemoryFootprint
referenceFootprint(const model::OpCounter &counter,
                   const hw::AcceleratorConfig &accel,
                   const MemoryOptions &options,
                   const mapping::ParallelismConfig &m, double microbatch)
{
    const auto &cfg = counter.config();
    double total = 0.0;
    for (std::int64_t l = 0; l < cfg.numLayers; ++l)
        total += counter.gradientsPerLayer(l);
    double params = total / static_cast<double>(m.tp() * m.pp());
    params += static_cast<double>(cfg.vocabSize + cfg.seqLength) *
              static_cast<double>(cfg.hiddenSize) /
              static_cast<double>(m.tp() * m.pp());
    const double dp = static_cast<double>(m.dp());
    const double param_bytes_each =
        accel.precisions.parameterBits.value() / units::bitsPerByte;

    MemoryFootprint fp;
    fp.parameterBytes = params * param_bytes_each;
    fp.gradientBytes = params * param_bytes_each;
    fp.optimizerBytes = params * options.optimizerBytesPerParam;
    switch (options.zeroStage) {
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

    const double s = static_cast<double>(cfg.seqLength);
    const double h = static_cast<double>(cfg.hiddenSize);
    const double ffn = static_cast<double>(cfg.ffnHiddenSize);
    const double a = static_cast<double>(cfg.numHeads);
    const double act_bytes =
        accel.precisions.activationBits.value() / units::bitsPerByte;
    const double layers_per_stage = static_cast<double>(cfg.numLayers) /
                                    static_cast<double>(m.pp());
    const double per_layer_elements =
        options.activationRecompute
            ? microbatch * s * h
            : microbatch * s * (3.0 * h + h + ffn + h + 2.0 * h) +
                  microbatch * a * s * s;
    const double in_flight =
        m.pp() > 1 ? static_cast<double>(m.pp()) : 1.0;
    fp.activationBytes = per_layer_elements * layers_per_stage *
                         act_bytes / static_cast<double>(m.tp()) *
                         in_flight;
    fp.workspaceBytes = options.workspaceBytes;
    return fp;
}

TEST(MemoryModelTest, CachedLayerSumMatchesPerLayerLoopBitwise)
{
    // Every preset: the MoE one matters most, because its expert
    // layers shard their gradients (OpCounter::gradientsPerLayer).
    const std::vector<model::TransformerConfig> models = {
        model::presets::tinyTest(),       model::presets::minGpt85M(),
        model::presets::minGptPipeline(), model::presets::gpt3_175B(),
        model::presets::megatron145B(),   model::presets::megatron310B(),
        model::presets::megatron530B(),   model::presets::megatron1T(),
        model::presets::gpipeTransformer24(),
        model::presets::glamMoE()};
    const std::vector<mapping::ParallelismConfig> mappings = {
        mapping::makeMapping(1, 1, 1, 1, 1, 1),
        mapping::makeMapping(8, 1, 1, 1, 1, 4),  // TP8, DP4
        mapping::makeMapping(2, 2, 2, 1, 4, 2),  // TP2, PP8, DP4
        mapping::makeMapping(8, 1, 1, 1, 8, 16), // TP8, PP8, DP16
    };
    const ZeroStage stages[] = {ZeroStage::none, ZeroStage::optimizer,
                                ZeroStage::gradients,
                                ZeroStage::parameters};
    const auto accel = hw::presets::a100();
    for (const auto &cfg : models) {
        const model::OpCounter counter(cfg);
        for (const bool recompute : {true, false}) {
            for (const ZeroStage stage : stages) {
                MemoryOptions options;
                options.zeroStage = stage;
                options.activationRecompute = recompute;
                const MemoryModel mm(counter, accel, options);
                for (const auto &m : mappings) {
                    const std::string label =
                        cfg.name + " " + m.toString() + " " +
                        zeroStageName(stage) +
                        (recompute ? " recompute" : " no-recompute");
                    const MemoryFootprint got =
                        mm.footprint(m, 4096.0, 2.0);
                    const MemoryFootprint want = referenceFootprint(
                        counter, accel, options, m, 2.0);
                    EXPECT_EQ(bits(got.parameterBytes),
                              bits(want.parameterBytes))
                        << label;
                    EXPECT_EQ(bits(got.gradientBytes),
                              bits(want.gradientBytes))
                        << label;
                    EXPECT_EQ(bits(got.optimizerBytes),
                              bits(want.optimizerBytes))
                        << label;
                    EXPECT_EQ(bits(got.activationBytes),
                              bits(want.activationBytes))
                        << label;
                    EXPECT_EQ(bits(got.workspaceBytes),
                              bits(want.workspaceBytes))
                        << label;
                    EXPECT_EQ(bits(got.totalBytes()),
                              bits(want.totalBytes()))
                        << label;
                }
            }
        }
    }
}

TEST(MemoryModelTest, ZeroStageNamesAndOverheads)
{
    EXPECT_EQ(zeroStageName(ZeroStage::none), "plain-DP");
    EXPECT_EQ(zeroStageName(ZeroStage::optimizer), "ZeRO-1");
    EXPECT_EQ(zeroStageName(ZeroStage::gradients), "ZeRO-2");
    EXPECT_EQ(zeroStageName(ZeroStage::parameters), "ZeRO-3");
    EXPECT_DOUBLE_EQ(zeroCommOverhead(ZeroStage::none), 0.0);
    EXPECT_DOUBLE_EQ(zeroCommOverhead(ZeroStage::gradients), 0.0);
    EXPECT_DOUBLE_EQ(zeroCommOverhead(ZeroStage::parameters), 0.5);
}

} // namespace
} // namespace core
} // namespace amped

/**
 * @file
 * Tests for the AMPeD evaluator: each equation term, scaling
 * behaviours, breakdown consistency, and option knobs.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/amped_model.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "reference_model.hpp"

namespace amped {
namespace core {
namespace {

/** 2 nodes x 4 accelerators test system with distinct link speeds. */
net::SystemConfig
testSystem()
{
    net::SystemConfig sys;
    sys.name = "test-2x4";
    sys.numNodes = 2;
    sys.acceleratorsPerNode = 4;
    sys.intraLink =
        net::LinkConfig{"intra", Seconds{1e-6}, BitsPerSecond{2.4e12}};
    sys.interLink =
        net::LinkConfig{"inter", Seconds{2e-6}, BitsPerSecond{2e11}};
    sys.nicsPerNode = 4;
    return sys;
}

AmpedModel
testModel(ModelOptions options = {})
{
    return AmpedModel(model::presets::tinyTest(),
                      hw::presets::tinyTest(),
                      hw::MicrobatchEfficiency(0.8, 4.0), testSystem(),
                      options);
}

TrainingJob
testJob(double batch = 64.0)
{
    TrainingJob job;
    job.batchSize = batch;
    job.numBatchesOverride = 100.0;
    return job;
}

TEST(AmpedModelTest, BreakdownTotalIsSumOfPhases)
{
    const auto result = testModel().evaluate(
        mapping::makeMapping(4, 1, 1, 1, 2, 1), testJob());
    double sum = 0.0;
    for (const auto &[label, seconds] : result.perBatch.phases())
        sum += seconds;
    EXPECT_NEAR(result.perBatch.total(), sum, 1e-15);
    EXPECT_DOUBLE_EQ(result.timePerBatch, result.perBatch.total());
    EXPECT_DOUBLE_EQ(result.totalTime, 100.0 * result.timePerBatch);
}

TEST(AmpedModelTest, ComputeScalesInverselyWithWorkers)
{
    const auto model = testModel();
    // Same microbatch size in both mappings (pure TP does not shrink
    // ub), so efficiency is identical and compute scales exactly.
    const auto r_small = model.evaluate(
        mapping::makeMapping(4, 1, 1, 1, 1, 2), testJob());
    net::SystemConfig big = testSystem();
    big.numNodes = 4;
    AmpedModel model_big(model::presets::tinyTest(),
                         hw::presets::tinyTest(),
                         hw::MicrobatchEfficiency(0.8, 4.0), big);
    const auto r_big = model_big.evaluate(
        mapping::makeMapping(4, 1, 1, 2, 1, 2), testJob());
    // r_small runs on 8 workers, r_big on 16: halving the worker
    // count doubles the compute time.
    EXPECT_NEAR(r_small.perBatch.computation() /
                    r_big.perBatch.computation(),
                2.0, 1e-9);
}

TEST(AmpedModelTest, NoTpMeansNoTpComm)
{
    const auto result = testModel().evaluate(
        mapping::makeMapping(1, 1, 4, 1, 1, 2), testJob());
    EXPECT_DOUBLE_EQ(result.perBatch.commTpIntra, 0.0);
    EXPECT_DOUBLE_EQ(result.perBatch.commTpInter, 0.0);
}

TEST(AmpedModelTest, TpIntraCommMatchesEqSix)
{
    const auto model = testModel();
    const auto m = mapping::makeMapping(4, 1, 1, 1, 1, 2);
    const auto result = model.evaluate(m, testJob());
    // Replica batch = 64 / 2 = 32; per layer Eq. 6, x layers,
    // x (1 + backward multiplier = 2).
    const double per_layer = model.tpIntraCommTime(m, 32.0).value();
    EXPECT_GT(per_layer, 0.0);
    EXPECT_NEAR(result.perBatch.commTpIntra, per_layer * 4.0 * 2.0,
                1e-15);
    EXPECT_DOUBLE_EQ(result.perBatch.commTpInter, 0.0);
}

TEST(AmpedModelTest, TpInterIsSlowerThanTpIntra)
{
    const auto model = testModel();
    // Same total TP = 4 but split differently; inter link is 12x
    // slower per stream.
    const auto intra = model.evaluate(
        mapping::makeMapping(4, 1, 1, 1, 1, 2), testJob());
    net::SystemConfig wide = testSystem();
    wide.numNodes = 4;
    wide.acceleratorsPerNode = 2;
    AmpedModel model_wide(model::presets::tinyTest(),
                          hw::presets::tinyTest(),
                          hw::MicrobatchEfficiency(0.8, 4.0), wide);
    const auto inter = model_wide.evaluate(
        mapping::makeMapping(2, 1, 1, 2, 1, 2), testJob());
    EXPECT_GT(inter.perBatch.commTpInter, 0.0);
    EXPECT_GT(inter.perBatch.commTpInter + inter.perBatch.commTpIntra,
              intra.perBatch.commTpIntra);
}

TEST(AmpedModelTest, NoPipelineMeansNoBubbleAndNoPpComm)
{
    const auto result = testModel().evaluate(
        mapping::makeMapping(4, 1, 1, 1, 1, 2), testJob());
    EXPECT_DOUBLE_EQ(result.perBatch.bubble, 0.0);
    EXPECT_DOUBLE_EQ(result.perBatch.commPp, 0.0);
}

TEST(AmpedModelTest, BubbleMatchesEqEight)
{
    const auto model = testModel();
    const auto m = mapping::makeMapping(1, 4, 1, 1, 2, 1); // PP = 8
    TrainingJob job = testJob(64.0);
    const auto result = model.evaluate(m, job);
    // Default N_ub = PP = 8.
    EXPECT_DOUBLE_EQ(result.numMicrobatches, 8.0);
    const double useful =
        result.perBatch.computeForward +
        result.perBatch.computeBackward + result.perBatch.commPp +
        result.perBatch.commTpIntra + result.perBatch.commTpInter +
        result.perBatch.commMoe;
    EXPECT_NEAR(result.perBatch.bubble, (8.0 - 1.0) / 8.0 * useful,
                1e-15);
}

TEST(AmpedModelTest, BubbleScalesLinearlyWithR)
{
    ModelOptions half;
    half.bubbleOverlapRatio = 0.5;
    const auto m = mapping::makeMapping(1, 4, 1, 1, 2, 1);
    const auto full = testModel().evaluate(m, testJob());
    const auto overlapped = testModel(half).evaluate(m, testJob());
    EXPECT_NEAR(overlapped.perBatch.bubble,
                0.5 * full.perBatch.bubble, 1e-15);
}

TEST(AmpedModelTest, MoreMicrobatchesShrinkBubble)
{
    const auto m = mapping::makeMapping(1, 4, 1, 1, 2, 1);
    TrainingJob few = testJob(64.0);
    TrainingJob many = testJob(64.0);
    many.microbatching.numMicrobatchesOverride = 32.0;
    const auto r_few = testModel().evaluate(m, few);
    const auto r_many = testModel().evaluate(m, many);
    EXPECT_LT(r_many.perBatch.bubble, r_few.perBatch.bubble);
}

TEST(AmpedModelTest, NoDpMeansNoGradComm)
{
    const auto result = testModel().evaluate(
        mapping::makeMapping(4, 1, 1, 2, 1, 1), testJob());
    EXPECT_DOUBLE_EQ(result.perBatch.commGradIntra, 0.0);
    EXPECT_DOUBLE_EQ(result.perBatch.commGradInter, 0.0);
}

TEST(AmpedModelTest, GradCommUsesBothTiers)
{
    const auto result = testModel().evaluate(
        mapping::makeMapping(1, 1, 4, 1, 1, 2), testJob());
    EXPECT_GT(result.perBatch.commGradIntra, 0.0);
    EXPECT_GT(result.perBatch.commGradInter, 0.0);
}

TEST(AmpedModelTest, FlatAllReduceIsSlowerThanHierarchical)
{
    ModelOptions flat;
    flat.hierarchicalGradAllReduce = false;
    const auto m = mapping::makeMapping(1, 1, 4, 1, 1, 2);
    const auto hier = testModel().evaluate(m, testJob());
    const auto flat_r = testModel(flat).evaluate(m, testJob());
    // Flat pushes all 8 DP ranks over the slow inter tier.
    EXPECT_GT(flat_r.perBatch.communication(),
              hier.perBatch.communication());
    EXPECT_DOUBLE_EQ(flat_r.perBatch.commGradIntra, 0.0);
}

TEST(AmpedModelTest, ZeroDpOverheadScalesForwardComm)
{
    ModelOptions zero;
    zero.zeroDpOverhead = 0.5;
    const auto m = mapping::makeMapping(4, 1, 1, 1, 1, 2);
    const auto plain = testModel().evaluate(m, testJob());
    const auto with_zero = testModel(zero).evaluate(m, testJob());
    EXPECT_NEAR(with_zero.perBatch.commTpIntra,
                1.5 * plain.perBatch.commTpIntra, 1e-15);
    // Gradient all-reduce is not scaled by the ZeRO factor.
    EXPECT_DOUBLE_EQ(with_zero.perBatch.commGradIntra,
                     plain.perBatch.commGradIntra);
}

TEST(AmpedModelTest, GradientBitsOverrideScalesGradComm)
{
    ModelOptions wide;
    wide.gradientBits = Bits{32.0}; // default: parameter precision 16
    const auto m = mapping::makeMapping(1, 1, 4, 1, 1, 2);
    const auto narrow = testModel().evaluate(m, testJob());
    const auto wide_r = testModel(wide).evaluate(m, testJob());
    // Bandwidth term doubles; latency term unchanged, so < 2x.
    EXPECT_GT(wide_r.perBatch.commGradIntra,
              narrow.perBatch.commGradIntra);
    EXPECT_LE(wide_r.perBatch.commGradIntra,
              2.0 * narrow.perBatch.commGradIntra + 1e-12);
}

TEST(AmpedModelTest, DenseModelHasNoMoeComm)
{
    const auto result = testModel().evaluate(
        mapping::makeMapping(4, 1, 1, 1, 1, 2), testJob());
    EXPECT_DOUBLE_EQ(result.perBatch.commMoe, 0.0);
}

TEST(AmpedModelTest, MoeModelPaysAllToAll)
{
    auto cfg = model::presets::tinyTest();
    cfg.moe.numExperts = 4;
    cfg.moe.moeLayerInterval = 2;
    AmpedModel moe_model(cfg, hw::presets::tinyTest(),
                         hw::MicrobatchEfficiency(0.8, 4.0),
                         testSystem());
    const auto result = moe_model.evaluate(
        mapping::makeMapping(4, 1, 1, 1, 1, 2), testJob());
    EXPECT_GT(result.perBatch.commMoe, 0.0);

    ModelOptions off;
    off.enableMoeComm = false;
    AmpedModel moe_off(cfg, hw::presets::tinyTest(),
                       hw::MicrobatchEfficiency(0.8, 4.0),
                       testSystem(), off);
    EXPECT_DOUBLE_EQ(moe_off
                         .evaluate(mapping::makeMapping(4, 1, 1, 1, 1,
                                                        2),
                                   testJob())
                         .perBatch.commMoe,
                     0.0);
}

TEST(AmpedModelTest, AchievedFlopsNeverExceedPeak)
{
    const auto model = testModel();
    const auto result = model.evaluate(
        mapping::makeMapping(4, 1, 1, 1, 2, 1), testJob(256.0));
    EXPECT_GT(result.achievedFlopsPerGpu, 0.0);
    EXPECT_LT(result.achievedFlopsPerGpu,
              model.accelerator().peakMacFlops().value());
}

TEST(AmpedModelTest, HigherEfficiencyMeansFasterTraining)
{
    const auto m = mapping::makeMapping(4, 1, 1, 1, 1, 2);
    AmpedModel slow(model::presets::tinyTest(),
                    hw::presets::tinyTest(),
                    hw::MicrobatchEfficiency(0.4, 4.0), testSystem());
    AmpedModel fast(model::presets::tinyTest(),
                    hw::presets::tinyTest(),
                    hw::MicrobatchEfficiency(0.8, 4.0), testSystem());
    EXPECT_GT(slow.evaluate(m, testJob()).timePerBatch,
              fast.evaluate(m, testJob()).timePerBatch);
}

TEST(AmpedModelTest, FasterInterconnectNeverHurts)
{
    const auto m = mapping::makeMapping(1, 1, 4, 2, 1, 1);
    auto slow_sys = testSystem();
    auto fast_sys = testSystem();
    fast_sys.interLink.bandwidth *= 10.0;
    AmpedModel slow(model::presets::tinyTest(),
                    hw::presets::tinyTest(),
                    hw::MicrobatchEfficiency(0.8, 4.0), slow_sys);
    AmpedModel fast(model::presets::tinyTest(),
                    hw::presets::tinyTest(),
                    hw::MicrobatchEfficiency(0.8, 4.0), fast_sys);
    EXPECT_GT(slow.evaluate(m, testJob()).timePerBatch,
              fast.evaluate(m, testJob()).timePerBatch);
}

TEST(AmpedModelTest, RejectsMappingNotMatchingSystem)
{
    EXPECT_THROW(testModel().evaluate(
                     mapping::makeMapping(2, 1, 1, 1, 1, 2), testJob()),
                 UserError);
}

TEST(AmpedModelTest, RejectsBadOptions)
{
    ModelOptions bad;
    bad.bubbleOverlapRatio = -1.0;
    EXPECT_THROW(testModel(bad), UserError);
    bad = ModelOptions{};
    bad.zeroDpOverhead = -0.5;
    EXPECT_THROW(testModel(bad), UserError);
}

TEST(AmpedModelTest, TokensPerSecondConsistent)
{
    const auto result = testModel().evaluate(
        mapping::makeMapping(4, 1, 1, 1, 2, 1), testJob(64.0));
    const double seq =
        static_cast<double>(model::presets::tinyTest().seqLength);
    EXPECT_NEAR(result.tokensPerSecond,
                64.0 * seq / result.timePerBatch, 1e-9);
}

TEST(AmpedModelTest, TrainingDaysConversion)
{
    EvaluationResult r;
    r.totalTime = 86400.0 * 3.0;
    EXPECT_DOUBLE_EQ(r.trainingDays(), 3.0);
}

TEST(AmpedModelTest, MoeCommOverlapsAcrossPipelineStages)
{
    // MoE all-to-all, like TP comm, is paid per stage concurrently:
    // adding PP must scale the per-batch MoE time by 1/PP (with the
    // same per-replica batch).
    auto cfg = model::presets::tinyTest();
    cfg.moe.numExperts = 4;
    cfg.moe.moeLayerInterval = 2;
    AmpedModel moe_model(cfg, hw::presets::tinyTest(),
                         hw::MicrobatchEfficiency(0.8, 4.0),
                         testSystem());
    TrainingJob job = testJob(64.0);
    // Keep the efficiency point identical across the two mappings.
    job.microbatching.microbatchSizeOverride = 8.0;
    const auto no_pp = moe_model.evaluate(
        mapping::makeMapping(4, 1, 1, 1, 1, 2), job);
    const auto with_pp = moe_model.evaluate(
        mapping::makeMapping(4, 1, 1, 1, 2, 1), job);
    ASSERT_GT(no_pp.perBatch.commMoe, 0.0);
    // Same replica batch (DP2 vs PP2 swap keeps batch/DP ratio 2x):
    // compare per-replica-normalized MoE comm instead.
    const auto pp_only = moe_model.evaluate(
        mapping::makeMapping(1, 2, 2, 1, 2, 1), job);
    EXPECT_GT(pp_only.perBatch.commMoe, 0.0);
    EXPECT_LT(with_pp.perBatch.commMoe / 2.0,
              no_pp.perBatch.commMoe);
}

TEST(AmpedModelTest, PipelineDeeperThanLayersIsAllowed)
{
    // The analytical equations do not require PP <= L (used by the
    // Case Study II low-end sweep).
    net::SystemConfig sys = testSystem();
    sys.numNodes = 8;
    sys.acceleratorsPerNode = 1;
    AmpedModel model(model::presets::tinyTest(),
                     hw::presets::tinyTest(),
                     hw::MicrobatchEfficiency(0.8, 4.0), sys);
    // PP = 8 > L = 4.
    EXPECT_NO_THROW(model.evaluate(
        mapping::makeMapping(1, 1, 1, 1, 8, 1), testJob()));
}

TEST(AmpedModelTest, EvaluateMatchesTheReferenceOnEveryPreset)
{
    // evaluate() assembles through AmpedModel::assemble, which the
    // sweep kernel and the optimizer's screen share, so it is held to
    // the per-layer reference evaluation (tests/reference_model.hpp):
    // the same bits in every result field, or the same exception
    // category and text.  Every model preset, every mapping of the
    // test system plus one that does not fit it, with default and
    // with non-default options; the jobs mix feasible points, bad
    // microbatching, an invalid batch and a non-finite batch count.
    const std::vector<model::TransformerConfig> presets = {
        model::presets::tinyTest(),       model::presets::minGpt85M(),
        model::presets::minGptPipeline(), model::presets::gpt3_175B(),
        model::presets::megatron145B(),   model::presets::megatron310B(),
        model::presets::megatron530B(),   model::presets::megatron1T(),
        model::presets::gpipeTransformer24(),
        model::presets::glamMoE()};
    ModelOptions tuned;
    tuned.bubbleOverlapRatio = 0.3;
    tuned.zeroDpOverhead = 0.5;
    tuned.backwardComputeMultiplier = 2.5;
    tuned.backwardCommMultiplier = 1.5;
    tuned.ppCommMultiplier = 2.0;
    tuned.hierarchicalGradAllReduce = false;
    tuned.intraTopologyFactorOverride = 1.0;
    tuned.enableMoeComm = false;

    auto mappings = mapping::MappingSpace(testSystem()).enumerate();
    mappings.push_back(mapping::makeMapping(1, 1, 1, 1, 1, 4));
    std::vector<TrainingJob> jobs;
    for (const double batch : {1.0, 3.5, 64.0, 2048.0, -8.0}) {
        TrainingJob job;
        job.batchSize = batch;
        jobs.push_back(job);
    }
    jobs[2].microbatching.microbatchSizeOverride = 2.0;
    jobs[3].numBatchesOverride = 100.0;
    jobs.push_back(jobs[3]);
    jobs.back().numBatchesOverride =
        std::numeric_limits<double>::infinity();

    std::size_t results = 0;
    std::size_t throws = 0;
    for (const auto &cfg : presets) {
        for (const ModelOptions &options : {ModelOptions{}, tuned}) {
            const AmpedModel model(cfg, hw::presets::a100(),
                                   hw::MicrobatchEfficiency(0.8, 4.0),
                                   testSystem(), options);
            for (const auto &m : mappings) {
                for (const auto &job : jobs) {
                    EXPECT_EQ(testutil::evaluateMismatch(model, m, job),
                              "")
                        << cfg.name << ", " << m.toString()
                        << ", batch " << job.batchSize;
                    try {
                        (void)model.evaluate(m, job);
                        ++results;
                    } catch (const std::exception &) {
                        ++throws;
                    }
                }
            }
        }
    }
    // Both endings must occur, or the comparison proves less than it
    // claims.
    EXPECT_GT(results, 0u);
    EXPECT_GT(throws, 0u);
}

} // namespace
} // namespace core
} // namespace amped

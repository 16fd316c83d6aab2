/**
 * @file
 * Correctness tests for the branch-and-bound strategy optimizer
 * (explore/optimizer.hpp), in three layers:
 *
 *  1. Exhaustive equivalence.  The optimizer's top-k must be
 *     *bit-pattern*-identical to brute force — run the full grid
 *     through a per-point AmpedModel::evaluate loop
 *     (reference_sweep.hpp), sort by (total time, grid order),
 *     truncate — over ~200 randomized grids mixing feasible /
 *     infeasible / over-memory / NaN-poisoned points, at thread
 *     counts 1, 2 and 8, plus MoE grids and screened grids whose
 *     mapping lists mix two device counts.  Counters must be
 *     thread-count-invariant, partition the grid exactly and match
 *     brute force's memory and infeasible counts; any grid where the
 *     bound pruned points while the ranking still matches brute
 *     force is direct evidence the bound never discarded a true
 *     winner.  Two larger grids, one of them NaN-pinned throughout,
 *     visit thousands of survivors across the mapping heaps.
 *  2. Degenerate searches.  Infeasible-everywhere grids, one-device
 *     clusters, prime device counts and expert-parallel requests on
 *     dense models must produce diagnosable empty/short results or
 *     field-named UserErrors — never a crash or a NaN ranking.
 *  3. Differential bands.  The optimizer's winners are cross-checked
 *     against sim::TrainingSimulator with the same tolerance bands
 *     test_differential.cpp documents (DP 6 %, GPipe 14 %, TP 15 %).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/memory_model.hpp"
#include "entry_bits.hpp"
#include "explore/explorer.hpp"
#include "explore/optimizer.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "reference_sweep.hpp"
#include "split_class_draws.hpp"
#include "sim/training_sim.hpp"
#include "validate/calibrations.hpp"

namespace amped {
namespace explore {
namespace {

net::SystemConfig
testSystem()
{
    net::SystemConfig sys;
    sys.name = "test-4x4";
    sys.numNodes = 4;
    sys.acceleratorsPerNode = 4;
    sys.intraLink =
        net::LinkConfig{"intra", Seconds{1e-6}, BitsPerSecond{2.4e12}};
    sys.interLink =
        net::LinkConfig{"inter", Seconds{2e-6}, BitsPerSecond{2e11}};
    sys.nicsPerNode = 4;
    return sys;
}

core::AmpedModel
tinyModel(const net::SystemConfig &sys = testSystem())
{
    return core::AmpedModel(model::presets::tinyTest(),
                            hw::presets::tinyTest(),
                            hw::MicrobatchEfficiency(0.8, 4.0), sys);
}

core::AmpedModel
minGptModel()
{
    return core::AmpedModel(model::presets::minGpt85M(),
                            hw::presets::tinyTest(),
                            hw::MicrobatchEfficiency(0.8, 4.0),
                            testSystem());
}

using testutil::bits;
using testutil::entryBits;

/**
 * Brute-force reference ranking: evaluate the whole grid point by
 * point with AmpedModel::evaluate and rank it with std::stable_sort
 * (reference_sweep.hpp, which shares no code with the kernel the
 * optimizer searches with or with Explorer::sortByTime): ascending
 * by total time, NaN last, ties in grid order.  Then truncate the
 * entries to k; the counters cover the whole grid.
 */
SweepResult
bruteForceTopK(const core::AmpedModel &model,
               const core::MemoryModel *screen,
               const std::vector<mapping::ParallelismConfig> &mappings,
               const std::vector<double> &batch_sizes,
               const core::TrainingJob &job_template, std::size_t k)
{
    std::vector<core::TrainingJob> jobs;
    for (const double batch : batch_sizes) {
        core::TrainingJob job = job_template;
        job.batchSize = batch;
        jobs.push_back(job);
    }
    testing::internal::CaptureStderr();
    auto result = testutil::referenceSweep(model, screen, mappings, jobs);
    testing::internal::GetCapturedStderr();
    testutil::referenceRank(result.entries);
    if (result.entries.size() > k)
        result.entries.resize(k);
    return result;
}

OptimizerResult
runOptimizer(const core::AmpedModel &model,
             const core::MemoryModel *screen, unsigned threads,
             const std::vector<mapping::ParallelismConfig> &mappings,
             const OptimizerRequest &request)
{
    Optimizer optimizer(model);
    optimizer.setThreads(threads);
    if (screen != nullptr)
        optimizer.setMemoryModel(*screen);
    testing::internal::CaptureStderr();
    auto result = optimizer.optimizeOver(mappings, request);
    testing::internal::GetCapturedStderr();
    return result;
}

/** Asserts the optimizer ranking is bit-identical to brute force. */
void
expectSameRanking(const std::vector<SweepEntry> &ref,
                  const std::vector<SweepEntry> &got,
                  const char *label)
{
    ASSERT_EQ(ref.size(), got.size()) << label;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].mapping.toString(),
                  got[i].mapping.toString())
            << label << " rank " << i;
        EXPECT_EQ(entryBits(ref[i]), entryBits(got[i]))
            << label << " rank " << i << " ("
            << ref[i].mapping.toString() << ")";
    }
}

/** The counter partition invariants from the header contract. */
void
expectCountersPartition(const OptimizerCounters &c, const char *label)
{
    EXPECT_EQ(c.points, c.prunedByMemory + c.prunedByBound +
                            c.skippedInfeasible + c.evaluated)
        << label;
    EXPECT_EQ(c.evaluated,
              c.feasible + c.infeasible + c.overMemory + c.failed)
        << label;
}

void
expectSameCounters(const OptimizerCounters &a,
                   const OptimizerCounters &b, const char *label)
{
    EXPECT_EQ(a.points, b.points) << label;
    EXPECT_EQ(a.cells, b.cells) << label;
    EXPECT_EQ(a.evaluated, b.evaluated) << label;
    EXPECT_EQ(a.prunedByMemory, b.prunedByMemory) << label;
    EXPECT_EQ(a.prunedByBound, b.prunedByBound) << label;
    EXPECT_EQ(a.skippedInfeasible, b.skippedInfeasible) << label;
    EXPECT_EQ(a.feasible, b.feasible) << label;
    EXPECT_EQ(a.infeasible, b.infeasible) << label;
    EXPECT_EQ(a.overMemory, b.overMemory) << label;
    EXPECT_EQ(a.failed, b.failed) << label;
}

/**
 * Draws one random search: 1-8 mappings of @p all_mappings, 1-6 batch
 * sizes, a job template with NaN poisons, batch-count and
 * microbatching overrides, and a top-k of 1-6.
 */
OptimizerRequest
drawRequest(std::mt19937 &rng,
            const std::vector<mapping::ParallelismConfig> &all_mappings,
            std::vector<mapping::ParallelismConfig> &mappings)
{
    std::uniform_int_distribution<std::size_t> pick(
        0, all_mappings.size() - 1);
    std::uniform_int_distribution<int> mapping_count(1, 8);
    const int m = mapping_count(rng);
    for (int i = 0; i < m; ++i)
        mappings.push_back(all_mappings[pick(rng)]);

    std::uniform_int_distribution<int> batch_count(1, 6);
    std::uniform_int_distribution<int> batch_pick(0, 7);
    std::uniform_int_distribution<int> odds(0, 9);
    static const double kBatches[] = {1.0,   2.0,    7.0,
                                      16.0,  64.0,   63.0,
                                      256.0, 4096.0};
    OptimizerRequest request;
    const int b = batch_count(rng);
    for (int i = 0; i < b; ++i)
        request.batchSizes.push_back(kBatches[batch_pick(rng)]);
    request.jobTemplate.totalTrainingTokens = 1e9;
    const int roll = odds(rng);
    if (roll == 0) // Poison: NaN-pins every point of the grid.
        request.jobTemplate.numBatchesOverride =
            std::numeric_limits<double>::infinity();
    else if (roll < 3)
        request.jobTemplate.numBatchesOverride = 5.0;
    if (roll == 4) // Often infeasible for large mappings.
        request.jobTemplate.microbatching.microbatchSizeOverride = 2.0;
    else if (roll == 5)
        request.jobTemplate.microbatching.numMicrobatchesOverride = 4.0;
    std::uniform_int_distribution<int> k_pick(1, 6);
    request.topK = static_cast<std::size_t>(k_pick(rng));
    return request;
}

/**
 * Runs one search at 1, 2 and 8 threads against brute force,
 * asserting bit-identical rankings, thread-invariant counters and
 * their partition; returns the counters of the 1-thread run.  The
 * screen is exact, so its memory and infeasible counts (with the
 * evaluated points that turned out so) are brute force's.
 */
OptimizerCounters
expectSearchMatchesBruteForce(
    const core::AmpedModel &model, const core::MemoryModel *mem,
    const std::vector<mapping::ParallelismConfig> &mappings,
    const OptimizerRequest &request)
{
    const auto ref =
        bruteForceTopK(model, mem, mappings, request.batchSizes,
                       request.jobTemplate, request.topK);
    const auto at1 = runOptimizer(model, mem, 1, mappings, request);
    expectSameRanking(ref.entries, at1.topK, "optimize@1");
    expectCountersPartition(at1.counters, "optimize@1");
    EXPECT_EQ(at1.counters.prunedByMemory + at1.counters.overMemory,
              ref.memorySkipped);
    EXPECT_EQ(at1.counters.skippedInfeasible + at1.counters.infeasible,
              ref.skipped);
    for (const unsigned threads : {2u, 8u}) {
        if (::testing::Test::HasFailure())
            break;
        const auto got = runOptimizer(model, mem, threads, mappings, request);
        const std::string label = "optimize@" + std::to_string(threads);
        expectSameRanking(ref.entries, got.topK, label.c_str());
        expectSameCounters(at1.counters, got.counters, label.c_str());
    }
    return at1.counters;
}

TEST(ExploreOptimizerProperty, TopKMatchesBruteForceOverRandomGrids)
{
    std::mt19937 rng(0xB0DDED17u);
    const auto tiny = tinyModel();
    const auto mingpt = minGptModel();
    // No activation recomputation: low-parallelism minGPT points
    // overflow the tiny 4 GB device, exercising the memory screen.
    core::MemoryOptions screen_options;
    screen_options.activationRecompute = false;
    const core::MemoryModel screen(
        model::OpCounter(model::presets::minGpt85M()),
        hw::presets::tinyTest(), screen_options);

    const auto all_mappings =
        mapping::MappingSpace(testSystem()).enumerate();
    ASSERT_GT(all_mappings.size(), 4u);

    OptimizerCounters totals;
    const auto tally = [&totals](const OptimizerCounters &c) {
        totals.points += c.points;
        totals.evaluated += c.evaluated;
        totals.prunedByMemory += c.prunedByMemory;
        totals.prunedByBound += c.prunedByBound;
        totals.skippedInfeasible += c.skippedInfeasible;
        totals.feasible += c.feasible;
        totals.failed += c.failed;
    };
    for (int grid = 0; grid < 200; ++grid) {
        const bool use_mingpt = grid % 2 == 1;
        const auto &model = use_mingpt ? mingpt : tiny;
        const core::MemoryModel *mem =
            use_mingpt && grid % 4 == 1 ? &screen : nullptr;
        std::vector<mapping::ParallelismConfig> mappings;
        const auto request = drawRequest(rng, all_mappings, mappings);
        tally(expectSearchMatchesBruteForce(model, mem, mappings, request));
        if (::testing::Test::HasFailure())
            FAIL() << "first mismatch at grid " << grid;
    }

    // Mixture-of-experts models, on a seeded loop of their own so the
    // draws above keep their inputs: the bound reads the kernel's
    // per-class MoE and gradient sums, which a dense model (one layer
    // class) cannot pin.
    std::mt19937 moe_rng(0x0E5E7A11u);
    int moe_grid = 0;
    std::size_t moe_feasible = 0;
    for (const std::int64_t layers : {4, 7, 12}) {
        for (const std::int64_t interval : {1, 2, 3}) {
            for (const std::int64_t top_k : {1, 2}) {
                for (const bool moe_comm : {true, false}) {
                    auto cfg = model::presets::tinyTest();
                    cfg.numLayers = layers;
                    cfg.moe.numExperts = 4;
                    cfg.moe.moeLayerInterval = interval;
                    cfg.moe.expertsPerToken = top_k;
                    core::ModelOptions options;
                    options.enableMoeComm = moe_comm;
                    const core::AmpedModel model(
                        cfg, hw::presets::tinyTest(),
                        hw::MicrobatchEfficiency(0.8, 4.0),
                        testSystem(), options);
                    const core::MemoryModel moe_screen(
                        model::OpCounter(cfg), hw::presets::tinyTest(),
                        screen_options);
                    std::vector<mapping::ParallelismConfig> mappings;
                    const auto request =
                        drawRequest(moe_rng, all_mappings, mappings);
                    const auto counters = expectSearchMatchesBruteForce(
                        model, moe_grid % 2 == 1 ? &moe_screen : nullptr,
                        mappings, request);
                    tally(counters);
                    moe_feasible += counters.feasible;
                    if (::testing::Test::HasFailure())
                        FAIL() << "first mismatch at MoE grid " << moe_grid
                               << " (" << layers << " layers, interval "
                               << interval << ", top " << top_k
                               << ", MoE comm " << moe_comm << ")";
                    ++moe_grid;
                }
            }
        }
    }

    // Mapping lists mixing two device counts, on a seeded loop of
    // their own, always screened.  Each draw picks from one (dp, pp)
    // class that holds two shapes (split_class_draws.hpp), and the
    // capacities sit near the fit boundary, so the class's verdicts
    // differ between its shapes: a verdict taken from the wrong shape
    // moves a point between prunedByMemory and skippedInfeasible, or
    // into the ranking, which brute force catches.
    const auto mixed_mappings =
        testutil::mixedDeviceCountMappings(testSystem());
    std::mt19937 mixed_rng(0x6C3D0F2Bu);
    std::size_t split_grids = 0;
    std::size_t mixed_memory = 0;
    for (int grid = 0; grid < 60; ++grid) {
        static const double kCapacities[] = {2.5e9, 3e9, 4e9};
        auto device = hw::presets::tinyTest();
        device.memoryBytes = kCapacities[grid % 3];
        const core::MemoryModel mixed_screen(
            model::OpCounter(model::presets::minGpt85M()), device,
            screen_options);
        std::vector<mapping::ParallelismConfig> mappings;
        const auto request = drawRequest(
            mixed_rng, testutil::splitClassPool(mixed_rng, mixed_mappings),
            mappings);
        split_grids += testutil::splitsAClass(mappings) ? 1 : 0;
        const auto counters = expectSearchMatchesBruteForce(
            mingpt, &mixed_screen, mappings, request);
        tally(counters);
        mixed_memory += counters.prunedByMemory;
        if (::testing::Test::HasFailure())
            FAIL() << "first mismatch at mixed grid " << grid;
    }
    EXPECT_GT(split_grids, 0u);
    EXPECT_GT(mixed_memory, 0u);
    // The generator must exercise every disposition class — in
    // particular prunedByBound > 0 together with the bit-identical
    // rankings above is the direct proof that the bound never
    // discarded a true winner.
    EXPECT_GT(totals.feasible, 0u);
    EXPECT_GT(totals.prunedByMemory, 0u);
    EXPECT_GT(totals.prunedByBound, 0u);
    EXPECT_GT(totals.skippedInfeasible, 0u);
    EXPECT_GT(totals.failed, 0u);
    EXPECT_LT(totals.evaluated, totals.points);
    EXPECT_GT(moe_feasible, 0u);
}

/**
 * A testSystem() grid of all 31 mappings x 640 batch sizes, so a
 * mapping's heap holds hundreds of survivors and the visit can pop
 * thousands of them.
 */
OptimizerRequest
largeGridRequest(std::size_t top_k)
{
    OptimizerRequest request;
    for (int i = 0; i < 640; ++i)
        request.batchSizes.push_back(64.0 + 8.0 * i);
    request.jobTemplate.totalTrainingTokens = 1e9;
    request.topK = top_k;
    return request;
}

/** Runs @p request at 1, 2 and 8 threads against brute force. */
OptimizerResult
expectLargeGridMatchesBruteForce(const OptimizerRequest &request)
{
    const auto model = tinyModel();
    const auto mappings = mapping::MappingSpace(testSystem()).enumerate(
        model.opCounter().config().numLayers);
    const auto ref =
        bruteForceTopK(model, nullptr, mappings, request.batchSizes,
                       request.jobTemplate, request.topK)
            .entries;
    EXPECT_EQ(ref.size(), request.topK);

    const auto at1 = runOptimizer(model, nullptr, 1, mappings, request);
    expectSameRanking(ref, at1.topK, "optimize@1");
    expectCountersPartition(at1.counters, "optimize@1");
    for (const unsigned threads : {2u, 8u}) {
        const auto got =
            runOptimizer(model, nullptr, threads, mappings, request);
        const std::string label = "optimize@" + std::to_string(threads);
        expectSameRanking(ref, got.topK, label.c_str());
        expectSameCounters(at1.counters, got.counters, label.c_str());
    }
    return at1;
}

TEST(ExploreOptimizerProperty, TopKMatchesBruteForcePastTheFirstRankedChunk)
{
    // Filling the top-k heap pops more than 4096 survivors off the
    // 31 mapping heaps before the tail prunes, so the visit
    // interleaves them many times over.  A mapping heap that yields
    // its survivors out of order, or a mapping not put back after a
    // pop, changes the ranking.
    for (const std::size_t top_k : {5000u, 9000u}) {
        const auto result =
            expectLargeGridMatchesBruteForce(largeGridRequest(top_k));
        EXPECT_GT(result.counters.evaluated, 4096u) << "top " << top_k;
        EXPECT_GT(result.counters.prunedByBound, 0u) << "top " << top_k;
        EXPECT_EQ(result.counters.failed, 0u) << "top " << top_k;
    }
}

TEST(ExploreOptimizerProperty, NaNPinnedGridVisitsEverySurvivor)
{
    // Every point NaN-pins, so every bound is +inf and nothing can
    // prune: the search must rank and visit the whole order.
    OptimizerRequest request = largeGridRequest(5000);
    request.jobTemplate.numBatchesOverride =
        std::numeric_limits<double>::infinity();
    const auto result = expectLargeGridMatchesBruteForce(request);
    const OptimizerCounters &c = result.counters;
    EXPECT_EQ(c.prunedByBound, 0u);
    EXPECT_EQ(c.evaluated,
              c.points - c.skippedInfeasible - c.prunedByMemory);
    EXPECT_EQ(c.failed, c.evaluated);
    EXPECT_GT(c.evaluated, request.topK);
}

// ---------------------------------------------------------------------
// Degenerate searches.
// ---------------------------------------------------------------------

TEST(ExploreOptimizerDegenerate, InfeasibleEverywhereGridIsEmptyAndCounted)
{
    // A 1-byte device: the memory screen rejects every point.
    auto starved = hw::presets::tinyTest();
    starved.memoryBytes = 1.0;
    const core::MemoryModel screen(
        model::OpCounter(model::presets::tinyTest()), starved);

    Optimizer optimizer(tinyModel());
    optimizer.setMemoryModel(screen);
    OptimizerRequest request;
    request.batchSizes = {64.0};
    request.topK = 5;
    const auto result = optimizer.optimize(request);
    EXPECT_TRUE(result.topK.empty());
    EXPECT_EQ(result.counters.feasible, 0u);
    EXPECT_GT(result.counters.prunedByMemory, 0u);
    // Every point is accounted for — nothing silently vanished.
    expectCountersPartition(result.counters, "infeasible-everywhere");
}

TEST(ExploreOptimizerDegenerate, SingleDeviceClusterReturnsTheOnlyMapping)
{
    net::SystemConfig sys = testSystem();
    sys.numNodes = 1;
    sys.acceleratorsPerNode = 1;
    Optimizer optimizer(tinyModel(sys));
    OptimizerRequest request;
    request.batchSizes = {16.0};
    request.topK = 3;
    const auto result = optimizer.optimize(request);
    ASSERT_EQ(result.topK.size(), 1u);
    EXPECT_EQ(result.topK.front().mapping.totalWorkers(), 1);
    EXPECT_TRUE(
        std::isfinite(result.topK.front().result.totalTime));
}

TEST(ExploreOptimizerDegenerate, PrimeDeviceCountStillRanksTrivialSplits)
{
    // 7 nodes x 1 device: only 1-or-7 factorizations exist.
    net::SystemConfig sys = testSystem();
    sys.numNodes = 7;
    sys.acceleratorsPerNode = 1;
    const auto model = tinyModel(sys);
    Optimizer optimizer(model);
    OptimizerRequest request;
    request.batchSizes = {64.0};
    request.topK = 4;
    const auto result = optimizer.optimize(request);
    ASSERT_FALSE(result.topK.empty());
    for (const auto &entry : result.topK) {
        EXPECT_TRUE(std::isfinite(entry.result.totalTime));
        const auto workers = entry.mapping.totalWorkers();
        EXPECT_TRUE(workers == 1 || workers == 7)
            << entry.mapping.toString();
    }
    // And the ranking still matches brute force exactly.
    const auto mappings = mapping::MappingSpace(sys).enumerate(
        model.opCounter().config().numLayers);
    const auto ref =
        bruteForceTopK(model, nullptr, mappings, request.batchSizes,
                       request.jobTemplate, request.topK);
    expectSameRanking(ref.entries, result.topK, "prime-cluster");
}

TEST(ExploreOptimizerDegenerate, ExpertParallelOnDenseModelIsRejected)
{
    Optimizer optimizer(tinyModel());
    OptimizerRequest request;
    request.batchSizes = {16.0};
    request.expertParallel = 2;
    try {
        optimizer.optimize(request);
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("mixture-of-experts"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ExploreOptimizerDegenerate, ExpertParallelMustDivideExpertCount)
{
    auto cfg = model::presets::tinyTest();
    cfg.moe.numExperts = 8;
    const core::AmpedModel moe_model(
        cfg, hw::presets::tinyTest(),
        hw::MicrobatchEfficiency(0.8, 4.0), testSystem());
    Optimizer optimizer(moe_model);
    OptimizerRequest request;
    request.batchSizes = {16.0};

    request.expertParallel = 3; // 3 does not divide 8.
    EXPECT_THROW(optimizer.optimize(request), UserError);

    request.expertParallel = 2; // Valid MoE degree.
    const auto result = optimizer.optimize(request);
    EXPECT_FALSE(result.topK.empty());

    request.expertParallel = 0; // Degrees below 1 are meaningless.
    EXPECT_THROW(optimizer.optimize(request), UserError);
}

TEST(ExploreOptimizerDegenerate, EmptyRequestsAreRejected)
{
    Optimizer optimizer(tinyModel());
    OptimizerRequest request;
    EXPECT_THROW(optimizer.optimize(request), UserError);
    request.batchSizes = {16.0};
    request.topK = 0;
    EXPECT_THROW(optimizer.optimize(request), UserError);
}

// ---------------------------------------------------------------------
// Differential bands against the discrete-event simulator, mirroring
// tests/test_differential.cpp's grids and tolerances.
// ---------------------------------------------------------------------

/** Shared efficiency calibration for the minGPT-class checks. */
hw::MicrobatchEfficiency
gridEfficiency()
{
    return validate::calibrations::minGptHgx2();
}

/** Optimizer winner's time-per-batch on an HGX-2-like pool. */
double
optimizedStep(const mapping::ParallelismConfig &mapping,
              std::int64_t devices, double batch)
{
    const core::AmpedModel model(
        model::presets::minGpt85M(), hw::presets::v100Sxm3(),
        gridEfficiency(), net::presets::hgx2(devices),
        validate::calibrations::nvswitchOptions(devices));
    Optimizer optimizer(model);
    OptimizerRequest request;
    request.batchSizes = {batch};
    request.jobTemplate.numBatchesOverride = 1.0;
    request.topK = 1;
    const auto result = optimizer.optimizeOver({mapping}, request);
    EXPECT_EQ(result.topK.size(), 1u);
    return result.topK.empty()
               ? std::numeric_limits<double>::quiet_NaN()
               : result.topK.front().result.timePerBatch;
}

sim::TrainingSimulator
makeSimulator()
{
    sim::TrainingSimulator simulator(
        model::presets::minGpt85M(), hw::presets::v100Sxm3(),
        gridEfficiency(), net::presets::nvlinkV100());
    // Match the analytic recompute convention (backward = 3x fwd).
    simulator.setBackwardMultiplier(3.0);
    return simulator;
}

TEST(ExploreOptimizerDifferential, WinnersAgreeWithSimulatorWithinBands)
{
    auto simulator = makeSimulator();

    // DP8 (per-device batch 32): band 6 %.
    {
        const double analytic = optimizedStep(
            mapping::makeMapping(1, 1, 8, 1, 1, 1), 8, 256.0);
        const double simulated =
            simulator.simulateDataParallelStep(8, 32.0).stepTime;
        ASSERT_GT(simulated, 0.0);
        EXPECT_NEAR(analytic / simulated, 1.0, 0.06)
            << "DP8: analytic " << analytic << " s, sim "
            << simulated << " s";
    }

    // TP8 (batch 32): band 15 %.
    {
        const double analytic = optimizedStep(
            mapping::makeMapping(8, 1, 1, 1, 1, 1), 8, 32.0);
        const double simulated =
            simulator.simulateTensorParallelStep(8, 32.0).stepTime;
        ASSERT_GT(simulated, 0.0);
        EXPECT_NEAR(analytic / simulated, 1.0, 0.15)
            << "TP8: analytic " << analytic << " s, sim "
            << simulated << " s";
    }

    // PP8 / GPipe (microbatch 8, 32 microbatches): band 14 %.
    {
        const double analytic = optimizedStep(
            mapping::makeMapping(1, 8, 1, 1, 1, 1), 8, 256.0);
        const double simulated =
            simulator.simulateGPipeStep(8, 8.0, 32).stepTime;
        ASSERT_GT(simulated, 0.0);
        EXPECT_NEAR(analytic / simulated, 1.0, 0.14)
            << "PP8: analytic " << analytic << " s, sim "
            << simulated << " s";
    }
}

TEST(ExploreOptimizerDifferential, Top3StrategiesStayWithinTheirBands)
{
    // One combined search over the three schedule families at a
    // shared batch: every strategy the optimizer ranks into its
    // top-3 must agree with the simulator's prediction for that
    // family within the family's documented band.  (The *order* of
    // the three is not asserted: the families' analytic/sim skews
    // differ by up to 15 %, so cross-family ranking is not a stable
    // property — the per-family bands are.)
    const std::int64_t devices = 8;
    const double batch = 256.0;
    const std::vector<mapping::ParallelismConfig> candidates = {
        mapping::makeMapping(1, 1, 8, 1, 1, 1), // DP8
        mapping::makeMapping(8, 1, 1, 1, 1, 1), // TP8
        mapping::makeMapping(1, 8, 1, 1, 1, 1), // PP8
    };
    const core::AmpedModel model(
        model::presets::minGpt85M(), hw::presets::v100Sxm3(),
        gridEfficiency(), net::presets::hgx2(devices),
        validate::calibrations::nvswitchOptions(devices));
    Optimizer optimizer(model);
    OptimizerRequest request;
    request.batchSizes = {batch};
    request.jobTemplate.numBatchesOverride = 1.0;
    request.topK = 3;
    const auto result = optimizer.optimizeOver(candidates, request);
    ASSERT_EQ(result.topK.size(), 3u);

    auto simulator = makeSimulator();
    for (const auto &entry : result.topK) {
        double simulated = 0.0;
        double band = 0.0;
        if (entry.mapping.dp() == 8) {
            simulated =
                simulator.simulateDataParallelStep(8, 32.0).stepTime;
            band = 0.06;
        } else if (entry.mapping.tp() == 8) {
            simulated =
                simulator.simulateTensorParallelStep(8, batch)
                    .stepTime;
            band = 0.15;
        } else {
            simulated =
                simulator.simulateGPipeStep(8, 8.0, 32).stepTime;
            band = 0.14;
        }
        ASSERT_GT(simulated, 0.0);
        EXPECT_NEAR(entry.result.timePerBatch / simulated, 1.0, band)
            << entry.mapping.toString() << ": analytic "
            << entry.result.timePerBatch << " s, sim " << simulated
            << " s";
    }
}

} // namespace
} // namespace explore
} // namespace amped

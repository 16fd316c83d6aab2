/**
 * @file
 * Differential tests of the sweep kernel (explore/sweep_kernel.hpp),
 * run through Explorer::sweepJobs, against the per-point reference
 * loop in reference_sweep.hpp.
 *
 * The kernel's contract is *byte*-identity, not approximate
 * agreement: entries in the same order, every result field with the
 * same bit pattern (including the NaN pinning of failed points),
 * the same skip/memory/failed counters, and the same warning lines
 * on stderr.  The property test below drives ~200 randomized grids
 * — mixed feasible / infeasible / over-memory / poisoned points,
 * with and without a memory screen, with microbatching overrides —
 * plus MoE grids and screened grids whose mapping lists mix two
 * device counts through the Explorer at thread counts 1, 2 and 8 and
 * asserts exactly that.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/batch_terms.hpp"
#include "core/memory_model.hpp"
#include "entry_bits.hpp"
#include "explore/explorer.hpp"
#include "explore/sweep_kernel.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "reference_sweep.hpp"
#include "split_class_draws.hpp"

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
tinyModel()
{
    return core::AmpedModel(model::presets::tinyTest(),
                            hw::presets::tinyTest(),
                            hw::MicrobatchEfficiency(0.8, 4.0),
                            testSystem());
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
 * Runs one (mappings x jobs) grid through the Explorer at the given
 * thread cap, capturing the warning stream.
 */
SweepResult
runExplorer(const core::AmpedModel &model,
            const core::MemoryModel *screen, unsigned threads,
            const std::vector<mapping::ParallelismConfig> &mappings,
            const std::vector<core::TrainingJob> &jobs,
            std::string &stderr_text)
{
    Explorer explorer(model);
    explorer.setThreads(threads);
    if (screen != nullptr)
        explorer.setMemoryModel(*screen);
    testing::internal::CaptureStderr();
    const auto result = explorer.sweepJobs(mappings, jobs);
    stderr_text = testing::internal::GetCapturedStderr();
    return result;
}

/** Asserts byte-identity of two sweeps (use via ASSERT_NO_FATAL_FAILURE). */
void
expectIdentical(const SweepResult &ref, const SweepResult &got,
                const std::string &ref_stderr,
                const std::string &got_stderr, const char *label)
{
    EXPECT_EQ(ref.status, got.status) << label;
    EXPECT_EQ(ref.visitedPoints, got.visitedPoints) << label;
    EXPECT_EQ(ref.skipped, got.skipped) << label;
    EXPECT_EQ(ref.memorySkipped, got.memorySkipped) << label;
    EXPECT_EQ(ref.failed, got.failed) << label;
    EXPECT_EQ(ref_stderr, got_stderr) << label;
    ASSERT_EQ(ref.entries.size(), got.entries.size()) << label;
    for (std::size_t i = 0; i < ref.entries.size(); ++i) {
        EXPECT_EQ(ref.entries[i].mapping.toString(),
                  got.entries[i].mapping.toString())
            << label << " entry " << i;
        EXPECT_EQ(entryBits(ref.entries[i]),
                  entryBits(got.entries[i]))
            << label << " entry " << i << " ("
            << ref.entries[i].mapping.toString() << ")";
    }
}

/**
 * Draws one random grid: 1-8 mappings of @p all_mappings and 1-6 jobs
 * mixing batch sizes, NaN poisons, batch-count and microbatching
 * overrides.
 */
void
drawGrid(std::mt19937 &rng,
         const std::vector<mapping::ParallelismConfig> &all_mappings,
         std::vector<mapping::ParallelismConfig> &mappings,
         std::vector<core::TrainingJob> &jobs)
{
    std::uniform_int_distribution<std::size_t> pick(
        0, all_mappings.size() - 1);
    std::uniform_int_distribution<int> mapping_count(1, 8);
    const int m = mapping_count(rng);
    for (int i = 0; i < m; ++i)
        mappings.push_back(all_mappings[pick(rng)]);

    std::uniform_int_distribution<int> job_count(1, 6);
    std::uniform_int_distribution<int> batch_pick(0, 7);
    std::uniform_int_distribution<int> odds(0, 9);
    static const double kBatches[] = {1.0,   2.0,    7.0,
                                      16.0,  64.0,   63.0,
                                      256.0, 4096.0};
    const int j = job_count(rng);
    for (int i = 0; i < j; ++i) {
        core::TrainingJob job;
        job.batchSize = kBatches[batch_pick(rng)];
        job.totalTrainingTokens = 1e9;
        const int roll = odds(rng);
        if (roll == 0) // Poison: NaN-pins the whole row.
            job.numBatchesOverride =
                std::numeric_limits<double>::infinity();
        else if (roll < 3)
            job.numBatchesOverride = 5.0;
        if (roll == 4) // Often infeasible for large mappings.
            job.microbatching.microbatchSizeOverride = 2.0;
        else if (roll == 5)
            job.microbatching.numMicrobatchesOverride = 4.0;
        jobs.push_back(job);
    }
}

/**
 * Sweeps one grid with the reference loop and with the Explorer at
 * 1, 2 and 8 threads, asserting byte-identity; returns the reference.
 */
SweepResult
expectGridMatchesReference(
    const core::AmpedModel &model, const core::MemoryModel *mem,
    const std::vector<mapping::ParallelismConfig> &mappings,
    const std::vector<core::TrainingJob> &jobs)
{
    testing::internal::CaptureStderr();
    auto ref = testutil::referenceSweep(model, mem, mappings, jobs);
    const std::string ref_stderr =
        testing::internal::GetCapturedStderr();
    for (const unsigned threads : {1u, 2u, 8u}) {
        const std::string label = "explorer@" + std::to_string(threads);
        std::string got_stderr;
        const auto got =
            runExplorer(model, mem, threads, mappings, jobs, got_stderr);
        expectIdentical(ref, got, ref_stderr, got_stderr, label.c_str());
        if (::testing::Test::HasFailure())
            break;
    }
    return ref;
}

/**
 * A tiny-test model with @p layers layers, every @p interval-th of
 * them a 4-expert MoE layer routing each token to @p top_k experts.
 */
model::TransformerConfig
tinyMoeConfig(std::int64_t layers, std::int64_t interval,
              std::int64_t top_k)
{
    auto cfg = model::presets::tinyTest();
    cfg.numLayers = layers;
    cfg.moe.numExperts = 4;
    cfg.moe.moeLayerInterval = interval;
    cfg.moe.expertsPerToken = top_k;
    return cfg;
}

TEST(ExploreBatchProperty, RandomGridsAreByteIdenticalAcrossEnginesAndThreads)
{
    std::mt19937 rng(0xA3BED5EEu);
    const auto tiny = tinyModel();
    const auto mingpt = minGptModel();
    // No activation recomputation: low-parallelism minGPT points
    // overflow the tiny 4 GB device, exercising memorySkipped.
    core::MemoryOptions screen_options;
    screen_options.activationRecompute = false;
    const core::MemoryModel screen(
        model::OpCounter(model::presets::minGpt85M()),
        hw::presets::tinyTest(), screen_options);

    const auto all_mappings =
        mapping::MappingSpace(testSystem()).enumerate();
    ASSERT_GT(all_mappings.size(), 4u);

    std::size_t total_feasible = 0;
    std::size_t total_skipped = 0;
    std::size_t total_memory = 0;
    std::size_t total_failed = 0;
    const auto tally = [&](const SweepResult &ref) {
        total_feasible += ref.entries.size() - ref.failed;
        total_skipped += ref.skipped;
        total_memory += ref.memorySkipped;
        total_failed += ref.failed;
    };
    for (int grid = 0; grid < 200; ++grid) {
        const bool use_mingpt = grid % 2 == 1;
        const auto &model = use_mingpt ? mingpt : tiny;
        const core::MemoryModel *mem =
            use_mingpt && grid % 4 == 1 ? &screen : nullptr;
        std::vector<mapping::ParallelismConfig> mappings;
        std::vector<core::TrainingJob> jobs;
        drawGrid(rng, all_mappings, mappings, jobs);
        tally(expectGridMatchesReference(model, mem, mappings, jobs));
        if (::testing::Test::HasFailure())
            FAIL() << "first mismatch at grid " << grid;
    }

    // Mixture-of-experts models, on a seeded loop of their own so the
    // draws above keep their inputs.  A dense model has one layer
    // class; these have a dense and an MoE class (one class at
    // interval 1) in several layer patterns, so they pin the
    // per-class forward, weight-update, MoE and gradient sums.
    std::mt19937 moe_rng(0x3E0E6A1Du);
    int moe_grid = 0;
    std::size_t moe_feasible = 0;
    for (const std::int64_t layers : {4, 7, 12}) {
        for (const std::int64_t interval : {1, 2, 3}) {
            for (const std::int64_t top_k : {1, 2}) {
                for (const bool moe_comm : {true, false}) {
                    const auto cfg =
                        tinyMoeConfig(layers, interval, top_k);
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
                    std::vector<core::TrainingJob> jobs;
                    drawGrid(moe_rng, all_mappings, mappings, jobs);
                    const auto ref = expectGridMatchesReference(
                        model, moe_grid % 2 == 1 ? &moe_screen : nullptr,
                        mappings, jobs);
                    tally(ref);
                    moe_feasible += ref.entries.size() - ref.failed;
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
    // moves a point between skipped and memorySkipped.
    const auto mixed_mappings =
        testutil::mixedDeviceCountMappings(testSystem());
    std::mt19937 mixed_rng(0x5B1A7E55u);
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
        std::vector<core::TrainingJob> jobs;
        drawGrid(mixed_rng,
                 testutil::splitClassPool(mixed_rng, mixed_mappings),
                 mappings, jobs);
        split_grids += testutil::splitsAClass(mappings) ? 1 : 0;
        const auto ref =
            expectGridMatchesReference(mingpt, &mixed_screen, mappings, jobs);
        tally(ref);
        mixed_memory += ref.memorySkipped;
        if (::testing::Test::HasFailure())
            FAIL() << "first mismatch at mixed grid " << grid;
    }
    // The generator must actually exercise every outcome class, or
    // the byte-identity assertions above prove less than they claim.
    EXPECT_GT(total_feasible, 0u);
    EXPECT_GT(total_skipped, 0u);
    EXPECT_GT(total_memory, 0u);
    EXPECT_GT(total_failed, 0u);
    EXPECT_GT(moe_feasible, 0u);
    EXPECT_GT(split_grids, 0u);
    EXPECT_GT(mixed_memory, 0u);
}

TEST(ExploreBatchTest, TermIdsAreTheSameAtAnyWorkerCount)
{
    // Term ids come from keys each job collects in parallel.  Small
    // batch sizes leave a job's high-parallelism classes infeasible,
    // so the jobs' distinct-key lists differ in length, and 48 jobs
    // span several work chunks.
    const auto cfg = tinyMoeConfig(7, 2, 2);
    const core::AmpedModel model(cfg, hw::presets::tinyTest(),
                                 hw::MicrobatchEfficiency(0.8, 4.0),
                                 testSystem());
    const auto mappings = mapping::MappingSpace(testSystem()).enumerate();
    std::vector<core::TrainingJob> jobs;
    for (int batch = 1; batch <= 48; ++batch) {
        core::TrainingJob job;
        job.batchSize = static_cast<double>(batch);
        job.totalTrainingTokens = 1e9;
        jobs.push_back(job);
    }

    const SweepKernel serial(model, nullptr, mappings, jobs, 1);
    std::size_t shortest = std::numeric_limits<std::size_t>::max();
    std::size_t longest = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::set<std::size_t> forward_ids;
        for (std::uint32_t c = 0; c < serial.numClasses(); ++c) {
            const JcEntry &e = serial.jcEntry(c, j);
            if (e.ubKind == kOk && e.preKind == kOk)
                forward_ids.insert(e.fwdId);
        }
        shortest = std::min(shortest, forward_ids.size());
        longest = std::max(longest, forward_ids.size());
    }
    EXPECT_LT(shortest, longest);

    for (const unsigned workers : {2u, 8u}) {
        const SweepKernel kernel(model, nullptr, mappings, jobs, workers);
        ASSERT_EQ(kernel.numClasses(), serial.numClasses());
        for (std::uint32_t c = 0; c < serial.numClasses(); ++c) {
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                const JcEntry &want = serial.jcEntry(c, j);
                const JcEntry &got = kernel.jcEntry(c, j);
                EXPECT_EQ(want.ubKind, got.ubKind);
                EXPECT_EQ(want.preKind, got.preKind);
                EXPECT_EQ(want.fwdId, got.fwdId);
                EXPECT_EQ(want.updId, got.updId);
                EXPECT_EQ(want.moeId, got.moeId);
                if (::testing::Test::HasFailure())
                    FAIL() << workers << " workers, class " << c
                           << ", job " << j;
            }
        }
    }
}

TEST(ExploreBatchTest, ModelFlopsMatchOpCounterBitwise)
{
    // The term cache replays the per-layer MAC sum per layer class.
    // Every preset (GLaM's MoE layers alternate with dense ones, as
    // in the 7-layer MoE config), with each FLOP convention on and
    // off, must give OpCounter::modelFlopsPerBatch's bits, and a
    // non-positive batch its UserError text.
    const std::vector<model::TransformerConfig> models = {
        model::presets::tinyTest(),       model::presets::minGpt85M(),
        model::presets::minGptPipeline(), model::presets::gpt3_175B(),
        model::presets::megatron145B(),   model::presets::megatron310B(),
        model::presets::megatron530B(),   model::presets::megatron1T(),
        model::presets::gpipeTransformer24(),
        model::presets::glamMoE(),        tinyMoeConfig(7, 2, 2)};
    const std::vector<double> batches = {1.0, 3.5, 512.0, 2056.0, 1e6};
    const std::vector<double> bad_batches = {0.0, -8.0};
    for (const auto &cfg : models) {
        for (const bool recompute : {true, false}) {
            for (const bool embedding : {true, false}) {
                const std::string label =
                    cfg.name + (recompute ? " recompute" : "") +
                    (embedding ? " embedding" : "");
                model::OpCountOptions options;
                options.activationRecompute = recompute;
                options.includeEmbeddingFlops = embedding;
                const core::AmpedModel model(
                    cfg, hw::presets::a100(),
                    hw::MicrobatchEfficiency(0.8, 4.0), testSystem(),
                    core::ModelOptions{}, options);
                core::SweepTermCache cache(model);
                std::vector<std::size_t> ids;
                for (const double batch : batches)
                    ids.push_back(cache.registerModelFlops(batch));
                std::vector<std::size_t> bad_ids;
                for (const double batch : bad_batches)
                    bad_ids.push_back(cache.registerModelFlops(batch));
                ASSERT_EQ(cache.prime(1), RunStatus::Completed);

                const model::OpCounter &counter = model.opCounter();
                for (std::size_t i = 0; i < batches.size(); ++i)
                    EXPECT_EQ(bits(cache.modelFlopsPerBatch(ids[i])),
                              bits(counter.modelFlopsPerBatch(batches[i])))
                        << label << " batch " << batches[i];
                for (std::size_t i = 0; i < bad_batches.size(); ++i) {
                    std::string want;
                    try {
                        (void)counter.modelFlopsPerBatch(bad_batches[i]);
                    } catch (const UserError &e) {
                        want = e.what();
                    }
                    ASSERT_FALSE(want.empty()) << label;
                    try {
                        (void)cache.modelFlopsPerBatch(bad_ids[i]);
                        ADD_FAILURE() << label << ": batch "
                                      << bad_batches[i] << " did not throw";
                    } catch (const UserError &e) {
                        EXPECT_EQ(std::string(e.what()), want) << label;
                    }
                }
            }
        }
    }
}

TEST(ExploreBatchTest, NanPinnedResultIsAllNaN)
{
    const auto pinned = nanPinnedResult();
    for (const auto value : entryBits(SweepEntry{
             mapping::makeMapping(1, 1, 1, 1, 1, 1),
             std::nan(""), pinned}))
        EXPECT_TRUE(std::isnan(
            [](std::uint64_t u) {
                double d = 0.0;
                std::memcpy(&d, &u, sizeof(d));
                return d;
            }(value)));
}

} // namespace
} // namespace explore
} // namespace amped

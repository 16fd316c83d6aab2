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
 * 1, 2 and 8 threads, asserting byte-identity, and evaluates every
 * point with AmpedModel::evaluate against the reference evaluation;
 * returns the reference sweep.
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
            return ref;
    }
    // evaluate() shares its assembly with the kernel, so it is held
    // to the reference evaluation too: result bits, or the exception.
    for (const auto &m : mappings)
        for (const auto &job : jobs)
            EXPECT_EQ(testutil::evaluateMismatch(model, m, job), "")
                << "evaluate() at " << m.toString() << " batch "
                << job.batchSize;
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

/** The family a seeded grid is drawn from. */
enum class Draw
{
    dense,     ///< tiny or minGPT, all mappings of testSystem().
    moe,       ///< tinyMoeConfig in several layer patterns.
    splitClass ///< Mixed device counts (split_class_draws.hpp).
};

/** One seeded grid, as forEachSeededGrid hands it out. */
struct SeededGrid
{
    Draw draw = Draw::dense;
    std::string label; ///< Names the grid in a failure message.
    const core::AmpedModel *model = nullptr;
    /** A memory screen for the grid's model (never nullptr). */
    const core::MemoryModel *screen = nullptr;
    /** Whether the property test sweeps the grid screened. */
    bool screened = false;
    std::vector<mapping::ParallelismConfig> mappings;
    std::vector<core::TrainingJob> jobs;
};

/**
 * Draws the seeded grids of the differential tests, each family on a
 * seeded loop of its own, and hands each grid to @p visit; stops after
 * the first grid whose visit records a test failure.
 *
 *  - 200 dense grids, alternating tiny and minGPT; every other minGPT
 *    grid is screened.
 *  - 36 mixture-of-experts grids: a dense and an MoE layer class (one
 *    class at interval 1) in several layer patterns, with and without
 *    MoE communication, so they pin the per-class forward,
 *    weight-update, MoE and gradient sums; every other one screened.
 *  - 60 always-screened minGPT grids whose mapping lists mix two
 *    device counts.  Each draw picks from one (dp, pp) class that
 *    holds two shapes, and the capacities sit near the fit boundary,
 *    so the class's verdicts differ between its shapes: a verdict
 *    taken from the wrong shape moves a point between skipped and
 *    memorySkipped.
 *
 * The screens leave out activation recomputation, so low-parallelism
 * minGPT points overflow the tiny device.
 */
template <class Visit>
void
forEachSeededGrid(Visit &&visit)
{
    const auto all_mappings =
        mapping::MappingSpace(testSystem()).enumerate();
    ASSERT_GT(all_mappings.size(), 4u);
    core::MemoryOptions screen_options;
    screen_options.activationRecompute = false;

    std::mt19937 rng(0xA3BED5EEu);
    const auto tiny = tinyModel();
    const auto mingpt = minGptModel();
    const core::MemoryModel tiny_screen(
        model::OpCounter(model::presets::tinyTest()),
        hw::presets::tinyTest(), screen_options);
    const core::MemoryModel mingpt_screen(
        model::OpCounter(model::presets::minGpt85M()),
        hw::presets::tinyTest(), screen_options);
    for (int grid = 0; grid < 200; ++grid) {
        SeededGrid g;
        const bool use_mingpt = grid % 2 == 1;
        g.label = "grid " + std::to_string(grid);
        g.model = use_mingpt ? &mingpt : &tiny;
        g.screen = use_mingpt ? &mingpt_screen : &tiny_screen;
        g.screened = use_mingpt && grid % 4 == 1;
        drawGrid(rng, all_mappings, g.mappings, g.jobs);
        visit(g);
        if (::testing::Test::HasFailure())
            return;
    }

    std::mt19937 moe_rng(0x3E0E6A1Du);
    int moe_grid = 0;
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
                    SeededGrid g;
                    g.draw = Draw::moe;
                    g.label = "MoE grid " + std::to_string(moe_grid) +
                              " (" + std::to_string(layers) +
                              " layers, interval " +
                              std::to_string(interval) + ", top " +
                              std::to_string(top_k) + ", MoE comm " +
                              std::to_string(moe_comm) + ")";
                    g.model = &model;
                    g.screen = &moe_screen;
                    g.screened = moe_grid % 2 == 1;
                    drawGrid(moe_rng, all_mappings, g.mappings, g.jobs);
                    visit(g);
                    if (::testing::Test::HasFailure())
                        return;
                    ++moe_grid;
                }
            }
        }
    }

    const auto mixed_mappings =
        testutil::mixedDeviceCountMappings(testSystem());
    std::mt19937 mixed_rng(0x5B1A7E55u);
    for (int grid = 0; grid < 60; ++grid) {
        static const double kCapacities[] = {2.5e9, 3e9, 4e9};
        auto device = hw::presets::tinyTest();
        device.memoryBytes = kCapacities[grid % 3];
        const core::MemoryModel mixed_screen(
            model::OpCounter(model::presets::minGpt85M()), device,
            screen_options);
        SeededGrid g;
        g.draw = Draw::splitClass;
        g.label = "mixed grid " + std::to_string(grid);
        g.model = &mingpt;
        g.screen = &mixed_screen;
        g.screened = true;
        drawGrid(mixed_rng,
                 testutil::splitClassPool(mixed_rng, mixed_mappings),
                 g.mappings, g.jobs);
        visit(g);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(ExploreBatchProperty, RandomGridsAreByteIdenticalAcrossEnginesAndThreads)
{
    std::size_t total_feasible = 0;
    std::size_t total_skipped = 0;
    std::size_t total_memory = 0;
    std::size_t total_failed = 0;
    std::size_t moe_feasible = 0;
    std::size_t split_grids = 0;
    std::size_t mixed_memory = 0;
    forEachSeededGrid([&](const SeededGrid &g) {
        const auto ref = expectGridMatchesReference(
            *g.model, g.screened ? g.screen : nullptr, g.mappings, g.jobs);
        if (::testing::Test::HasFailure())
            FAIL() << "first mismatch at " << g.label;
        total_feasible += ref.entries.size() - ref.failed;
        total_skipped += ref.skipped;
        total_memory += ref.memorySkipped;
        total_failed += ref.failed;
        if (g.draw == Draw::moe)
            moe_feasible += ref.entries.size() - ref.failed;
        if (g.draw == Draw::splitClass) {
            split_grids += testutil::splitsAClass(g.mappings) ? 1 : 0;
            mixed_memory += ref.memorySkipped;
        }
    });
    if (::testing::Test::HasFailure())
        return;
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

TEST(ExploreBatchTest, ScreenKeyIsTheExactTotalTime)
{
    // The optimizer's screen ranks a point by
    // SweepKernel::evaluatePoint's Outcome::rankKey.  With no margin,
    // that key must be the point's exact total time: the bits
    // evaluatePoints reports (and the reference evaluation computes)
    // for a feasible point, +infinity for a point that NaN-pins, with
    // the same classification.  Every seeded grid runs with and
    // without a memory screen.
    const double inf = std::numeric_limits<double>::infinity();
    std::size_t feasible = 0;
    std::size_t failed = 0;
    std::size_t over_memory = 0;
    forEachSeededGrid([&](const SeededGrid &g) {
        for (const core::MemoryModel *mem :
             {g.screen, static_cast<const core::MemoryModel *>(nullptr)}) {
            const std::string label =
                g.label + (mem != nullptr ? " screened" : "");
            testing::internal::CaptureStderr();
            const SweepResult ref = testutil::referenceSweep(
                *g.model, mem, g.mappings, g.jobs);
            (void)testing::internal::GetCapturedStderr();
            const SweepKernel kernel(*g.model, mem, g.mappings, g.jobs,
                                     2);
            ASSERT_EQ(kernel.primeStatus(), RunStatus::Completed);
            std::vector<std::size_t> indices(kernel.numPoints());
            for (std::size_t i = 0; i < indices.size(); ++i)
                indices[i] = i;
            std::vector<SweepKernel::Outcome> exact;
            ASSERT_EQ(kernel.evaluatePoints(indices, exact, 2),
                      RunStatus::Completed);

            std::size_t next_entry = 0; // ref is mapping-major too.
            std::size_t skipped = 0;
            std::size_t memory_skipped = 0;
            for (std::size_t m = 0; m < g.mappings.size(); ++m) {
                for (std::size_t j = 0; j < g.jobs.size(); ++j) {
                    const SweepKernel::Outcome &want =
                        exact[m * g.jobs.size() + j];
                    SweepKernel::Outcome screened;
                    kernel.evaluatePoint(m, j, screened);
                    ASSERT_EQ(screened.status, want.status)
                        << label << ", mapping " << m << ", job " << j;
                    const double key = screened.rankKey();
                    switch (want.status) {
                    case PointStatus::feasible:
                        ASSERT_LT(next_entry, ref.entries.size());
                        EXPECT_EQ(bits(key), bits(want.result.totalTime))
                            << label << ", mapping " << m << ", job "
                            << j;
                        EXPECT_EQ(bits(key),
                                  bits(ref.entries[next_entry++]
                                           .result.totalTime))
                            << label << ", mapping " << m << ", job "
                            << j;
                        ++feasible;
                        break;
                    case PointStatus::failedPoint:
                        ASSERT_LT(next_entry, ref.entries.size());
                        EXPECT_TRUE(std::isnan(
                            ref.entries[next_entry++].result.totalTime))
                            << label;
                        EXPECT_EQ(key, inf) << label;
                        ++failed;
                        break;
                    case PointStatus::infeasible:
                        ++skipped;
                        break;
                    case PointStatus::overMemory:
                        ++memory_skipped;
                        ++over_memory;
                        break;
                    }
                }
            }
            EXPECT_EQ(next_entry, ref.entries.size()) << label;
            EXPECT_EQ(skipped, ref.skipped) << label;
            EXPECT_EQ(memory_skipped, ref.memorySkipped) << label;
            if (::testing::Test::HasFailure())
                FAIL() << "first mismatch at " << label;
        }
    });
    EXPECT_GT(feasible, 0u);
    EXPECT_GT(failed, 0u);
    EXPECT_GT(over_memory, 0u);
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

                using Recorded = core::SweepTermCache::Outcome;
                const model::OpCounter &counter = model.opCounter();
                for (std::size_t i = 0; i < batches.size(); ++i) {
                    const auto &entry = cache.modelFlops(ids[i]);
                    EXPECT_EQ(entry.outcome, Recorded::ok) << label;
                    EXPECT_EQ(bits(entry.value),
                              bits(counter.modelFlopsPerBatch(batches[i])))
                        << label << " batch " << batches[i];
                }
                for (std::size_t i = 0; i < bad_batches.size(); ++i) {
                    std::string want;
                    try {
                        (void)counter.modelFlopsPerBatch(bad_batches[i]);
                    } catch (const UserError &e) {
                        want = e.what();
                    }
                    ASSERT_FALSE(want.empty()) << label;
                    const auto &entry = cache.modelFlops(bad_ids[i]);
                    EXPECT_EQ(entry.outcome, Recorded::userError)
                        << label << ": batch " << bad_batches[i];
                    EXPECT_EQ(entry.message, want) << label;
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

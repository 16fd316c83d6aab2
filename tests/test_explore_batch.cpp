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
 * through the Explorer at thread counts 1, 2 and 8 and asserts
 * exactly that.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/memory_model.hpp"
#include "entry_bits.hpp"
#include "explore/explorer.hpp"
#include "explore/sweep_kernel.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "reference_sweep.hpp"

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
    for (int grid = 0; grid < 200; ++grid) {
        const bool use_mingpt = grid % 2 == 1;
        const auto &model = use_mingpt ? mingpt : tiny;
        const core::MemoryModel *mem =
            use_mingpt && grid % 4 == 1 ? &screen : nullptr;

        std::uniform_int_distribution<std::size_t> pick(
            0, all_mappings.size() - 1);
        std::uniform_int_distribution<int> mapping_count(1, 8);
        std::vector<mapping::ParallelismConfig> mappings;
        const int m = mapping_count(rng);
        for (int i = 0; i < m; ++i)
            mappings.push_back(all_mappings[pick(rng)]);

        std::uniform_int_distribution<int> job_count(1, 6);
        std::uniform_int_distribution<int> batch_pick(0, 7);
        std::uniform_int_distribution<int> odds(0, 9);
        static const double kBatches[] = {1.0,   2.0,    7.0,
                                          16.0,  64.0,   63.0,
                                          256.0, 4096.0};
        std::vector<core::TrainingJob> jobs;
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

        testing::internal::CaptureStderr();
        const auto ref =
            testutil::referenceSweep(model, mem, mappings, jobs);
        const std::string ref_stderr =
            testing::internal::GetCapturedStderr();
        total_feasible += ref.entries.size() - ref.failed;
        total_skipped += ref.skipped;
        total_memory += ref.memorySkipped;
        total_failed += ref.failed;

        for (const unsigned threads : {1u, 2u, 8u}) {
            const std::string label =
                "explorer@" + std::to_string(threads);
            std::string got_stderr;
            const auto got = runExplorer(model, mem, threads, mappings,
                                         jobs, got_stderr);
            ASSERT_NO_FATAL_FAILURE(
                expectIdentical(ref, got, ref_stderr, got_stderr,
                                label.c_str()))
                << "grid " << grid << " " << label;
            if (::testing::Test::HasFailure())
                FAIL() << "first mismatch at grid " << grid;
        }
    }
    // The generator must actually exercise every outcome class, or
    // the byte-identity assertions above prove less than they claim.
    EXPECT_GT(total_feasible, 0u);
    EXPECT_GT(total_skipped, 0u);
    EXPECT_GT(total_memory, 0u);
    EXPECT_GT(total_failed, 0u);
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

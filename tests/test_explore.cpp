/**
 * @file
 * Tests for the design-space exploration engine and the ablation
 * harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "explore/ablation.hpp"
#include "explore/explorer.hpp"
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
testModel()
{
    return core::AmpedModel(model::presets::tinyTest(),
                            hw::presets::tinyTest(),
                            hw::MicrobatchEfficiency(0.8, 4.0),
                            testSystem());
}

core::TrainingJob
testJob()
{
    core::TrainingJob job;
    job.batchSize = 256.0;
    job.numBatchesOverride = 10.0;
    return job;
}

TEST(ExplorerTest, SweepAllEvaluatesEveryFeasibleMapping)
{
    Explorer explorer(testModel());
    const auto result = explorer.sweepAll({256.0}, testJob());
    // 4 = 2^2 -> 6 splits per tier, 36 total; PP capped at 4 layers
    // filters some; batch 256 is large enough for all.
    EXPECT_GT(result.entries.size(), 20u);
    EXPECT_EQ(result.skipped, 0u);
    for (const auto &entry : result.entries) {
        EXPECT_GT(entry.result.timePerBatch, 0.0);
        EXPECT_EQ(entry.batchSize, 256.0);
    }
}

TEST(ExplorerTest, InfeasiblePointsAreSkippedNotFatal)
{
    Explorer explorer(testModel());
    // Batch 4 is too small for mappings with DP * PP = 16.
    const auto result = explorer.sweepAll({4.0}, testJob());
    EXPECT_GT(result.skipped, 0u);
    EXPECT_GT(result.entries.size(), 0u);
}

TEST(ExplorerTest, BestPicksMinimumTime)
{
    Explorer explorer(testModel());
    auto result = explorer.sweepAll({256.0}, testJob());
    const auto best = Explorer::best(result);
    ASSERT_TRUE(best.has_value());
    for (const auto &entry : result.entries)
        EXPECT_LE(best->result.totalTime, entry.result.totalTime);
    EXPECT_FALSE(Explorer::best(SweepResult{}).has_value());
}

TEST(ExplorerTest, SortOrdersAscending)
{
    Explorer explorer(testModel());
    auto result = explorer.sweepAll({256.0}, testJob());
    Explorer::sortByTime(result.entries);
    for (std::size_t i = 1; i < result.entries.size(); ++i) {
        EXPECT_LE(result.entries[i - 1].result.totalTime,
                  result.entries[i].result.totalTime);
    }
}

TEST(ExplorerTest, MultipleBatchSizesCrossProduct)
{
    Explorer explorer(testModel());
    const std::vector<mapping::ParallelismConfig> mappings = {
        mapping::makeMapping(4, 1, 1, 1, 1, 4),
        mapping::makeMapping(1, 1, 4, 1, 1, 4),
    };
    const auto result =
        explorer.sweep(mappings, {64.0, 128.0, 256.0}, testJob());
    EXPECT_EQ(result.entries.size(), 6u);
}

TEST(ExplorerTest, BrokenPointIsNanPinnedNotFatal)
{
    // A sweep grid with an intentionally broken point (an infinite
    // batch-count override passes job validation but yields an
    // infinite total time) must complete, NaN-pin that point, warn
    // once, and return every other point untouched.
    Explorer explorer(testModel());
    const std::vector<mapping::ParallelismConfig> mappings = {
        mapping::makeMapping(4, 1, 1, 1, 1, 4),
    };
    std::vector<core::TrainingJob> jobs;
    jobs.push_back(testJob());
    core::TrainingJob poison = testJob();
    poison.numBatchesOverride =
        std::numeric_limits<double>::infinity();
    jobs.push_back(poison);

    testing::internal::CaptureStderr();
    const auto result = explorer.sweepJobs(mappings, jobs);
    const std::string stderr_text =
        testing::internal::GetCapturedStderr();

    EXPECT_EQ(result.failed, 1u);
    EXPECT_EQ(result.skipped, 0u);
    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_TRUE(std::isfinite(result.entries[0].result.totalTime));
    EXPECT_GT(result.entries[0].result.totalTime, 0.0);
    EXPECT_TRUE(std::isnan(result.entries[1].result.totalTime));
    EXPECT_TRUE(std::isnan(result.entries[1].result.timePerBatch));

    // Exactly one warning, naming the failure mode.
    EXPECT_NE(stderr_text.find("warn"), std::string::npos)
        << stderr_text;
    EXPECT_NE(stderr_text.find("non-finite total time"),
              std::string::npos)
        << stderr_text;
    EXPECT_EQ(std::count(stderr_text.begin(), stderr_text.end(),
                         '\n'),
              1)
        << stderr_text;
}

TEST(ExplorerTest, NanPinnedEntriesRankLastAndNeverWinBest)
{
    Explorer explorer(testModel());
    const std::vector<mapping::ParallelismConfig> mappings = {
        mapping::makeMapping(4, 1, 1, 1, 1, 4),
        mapping::makeMapping(1, 1, 4, 1, 1, 4),
    };
    core::TrainingJob poison = testJob();
    poison.numBatchesOverride =
        std::numeric_limits<double>::infinity();
    log::Silencer quiet;
    auto result = explorer.sweepJobs(mappings, {testJob(), poison});
    EXPECT_EQ(result.failed, 2u);
    ASSERT_EQ(result.entries.size(), 4u);

    const auto best = Explorer::best(result);
    ASSERT_TRUE(best.has_value());
    EXPECT_TRUE(std::isfinite(best->result.totalTime));

    Explorer::sortByTime(result.entries);
    EXPECT_TRUE(std::isfinite(result.entries.front().result.totalTime));
    EXPECT_TRUE(std::isnan(result.entries[2].result.totalTime));
    EXPECT_TRUE(std::isnan(result.entries[3].result.totalTime));
}

/**
 * Seeded entries with heavy ties: 32 distinct finite times, NaN
 * pins, +infinity (which ranks tied with NaN) and both signed zeros.
 * Each entry carries its input position in batchSize, so reordering
 * a tie changes the bytes.
 */
std::vector<SweepEntry>
tiedEntries(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<SweepEntry> entries(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t draw = rng();
        SweepEntry &entry = entries[i];
        entry.batchSize = static_cast<double>(i);
        double &total = entry.result.totalTime;
        switch (draw % 8) {
        case 0:
            total = std::numeric_limits<double>::quiet_NaN();
            break;
        case 1:
            total = std::numeric_limits<double>::infinity();
            break;
        case 2:
            total = -0.0;
            break;
        case 3:
            total = 0.0;
            break;
        default:
            total = static_cast<double>((draw >> 8) % 32) * 0.25;
        }
    }
    return entries;
}

/** Input orders that take different paths through sortByTime. */
enum class RankInput
{
    random,       ///< tiedEntries: long cycles, heavy ties.
    sorted,       ///< The identity permutation: every slot fixed.
    reversed,     ///< Two-cycles, some through a split point.
    swappedPairs, ///< Two-cycles through no split point.
    allNan,       ///< Every key +infinity: order by index alone.
    oneKey        ///< Every key equal and finite.
};

/**
 * n entries in the order @p kind names, each carrying its input
 * position in batchSize.  sortByTime's permutation walks start at
 * every 256th slot (its split points); swappedPairs swaps adjacent
 * keys only between the slots in between, so every cycle misses the
 * split points and the serial pass places every entry.
 */
std::vector<SweepEntry>
rankInput(RankInput kind, std::size_t n, std::uint64_t seed)
{
    if (kind == RankInput::random)
        return tiedEntries(n, seed);
    std::vector<SweepEntry> entries(n);
    for (std::size_t i = 0; i < n; ++i) {
        SweepEntry &entry = entries[i];
        entry.batchSize = static_cast<double>(i);
        double key = static_cast<double>(i);
        const std::size_t offset = i % 256;
        switch (kind) {
        case RankInput::reversed:
            key = static_cast<double>(n - i);
            break;
        case RankInput::swappedPairs:
            if (offset >= 1 && offset <= 254) {
                if (offset % 2 == 1 && i + 1 < n)
                    key = static_cast<double>(i + 1);
                else if (offset % 2 == 0)
                    key = static_cast<double>(i - 1);
            }
            break;
        case RankInput::allNan:
            key = std::numeric_limits<double>::quiet_NaN();
            break;
        case RankInput::oneKey:
            key = 1.5;
            break;
        case RankInput::random:
        case RankInput::sorted:
            break;
        }
        entry.result.totalTime = key;
    }
    return entries;
}

TEST(ExplorerTest, SortByTimeMatchesStableSortByteForByte)
{
    static_assert(std::is_trivially_copyable_v<SweepEntry>,
                  "entries are compared with memcmp");
    const auto expectSameBytes = [](const std::vector<SweepEntry> &a,
                                     const std::vector<SweepEntry> &b) {
        ASSERT_EQ(a.size(), b.size());
        if (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(SweepEntry)) == 0)
            return;
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(SweepEntry)), 0)
                << "first difference at position " << i;
    };
    // The small sizes cover the edge cases.  2^18 + 1 entries split
    // into one range per 64 Ki entries (1, 2, 4 and 5 ranges at the
    // caps below) and cross 1,025 split points; every worker cap must
    // give the reference's bytes (testutil::referenceRank, a
    // std::stable_sort).  The sorted input is the identity
    // permutation.
    const RankInput kinds[] = {RankInput::random,  RankInput::sorted,
                               RankInput::reversed,
                               RankInput::swappedPairs,
                               RankInput::allNan, RankInput::oneKey};
    // Buffers reused across inputs.
    std::vector<SweepEntry> expected;
    std::vector<SweepEntry> ranked;
    for (const std::size_t n : {0, 1, 2, 3, 1000, (1 << 18) + 1}) {
        for (const RankInput kind : kinds) {
            const std::uint64_t seeds =
                kind == RankInput::random && n <= 1000 ? 8 : 1;
            for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
                SCOPED_TRACE("n=" + std::to_string(n) + " input=" +
                             std::to_string(static_cast<int>(kind)) +
                             " seed=" + std::to_string(seed));
                const auto input = rankInput(kind, n, seed);
                expected = input;
                testutil::referenceRank(expected);
                for (const unsigned cap : {1u, 2u, 4u, 8u}) {
                    SCOPED_TRACE("max_workers=" + std::to_string(cap));
                    ranked = input;
                    Explorer::sortByTime(ranked, cap);
                    expectSameBytes(ranked, expected);
                }
            }
        }
    }
}

TEST(ExplorerTest, TablesContainMappingsAndPhases)
{
    Explorer explorer(testModel());
    auto result = explorer.sweepAll({256.0}, testJob());
    Explorer::sortByTime(result.entries);
    const std::string table = sweepTable(result.entries);
    EXPECT_NE(table.find("mapping"), std::string::npos);
    EXPECT_NE(table.find("TFLOP/s/GPU"), std::string::npos);

    const std::string breakdown =
        breakdownTable(result.entries.front().result);
    EXPECT_NE(breakdown.find("compute-forward"), std::string::npos);
    EXPECT_NE(breakdown.find("pipeline-bubble"), std::string::npos);
    EXPECT_NE(breakdown.find("100.00 %"), std::string::npos);
}

TEST(ExplorerTest, SweepCsvIsMachineReadable)
{
    Explorer explorer(testModel());
    auto result = explorer.sweepAll({256.0}, testJob());
    Explorer::sortByTime(result.entries);
    result.entries.resize(2);
    const std::string csv = sweepCsv(result.entries);
    // Header + 2 data rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_NE(csv.find("mapping,tp,pp,dp,batch,microbatch"),
              std::string::npos);
    EXPECT_NE(csv.find("pipeline_bubble_seconds"),
              std::string::npos);
    // Mapping strings contain no comma, so no quoting is needed,
    // and every row has the same column count as the header.
    const auto columns = [](const std::string &line) {
        return std::count(line.begin(), line.end(), ',');
    };
    std::istringstream lines(csv);
    std::string header, row;
    std::getline(lines, header);
    while (std::getline(lines, row))
        EXPECT_EQ(columns(row), columns(header));
}

TEST(ExplorerTest, MemoryScreeningDropsOversizedPoints)
{
    // A 175B model on a tiny 16-accelerator system: almost nothing
    // fits in 80 GB per device.
    net::SystemConfig sys = testSystem();
    core::AmpedModel amped(model::presets::gpt3_175B(),
                           hw::presets::a100(),
                           hw::MicrobatchEfficiency(0.8, 4.0), sys);
    Explorer explorer(amped);
    core::TrainingJob job;
    job.batchSize = 64.0;
    job.numBatchesOverride = 1.0;

    const auto unscreened = explorer.sweepAll({64.0}, job);
    explorer.setMemoryModel(core::MemoryModel(
        model::OpCounter(model::presets::gpt3_175B()),
        hw::presets::a100()));
    const auto screened = explorer.sweepAll({64.0}, job);

    EXPECT_EQ(unscreened.memorySkipped, 0u);
    EXPECT_GT(screened.memorySkipped, 0u);
    EXPECT_LT(screened.entries.size(), unscreened.entries.size());
    // Every surviving point actually fits.
    core::MemoryModel checker(
        model::OpCounter(model::presets::gpt3_175B()),
        hw::presets::a100());
    for (const auto &entry : screened.entries) {
        EXPECT_TRUE(checker.fits(entry.mapping, entry.batchSize,
                                 entry.result.microbatchSize));
    }

    explorer.clearMemoryModel();
    const auto cleared = explorer.sweepAll({64.0}, job);
    EXPECT_EQ(cleared.memorySkipped, 0u);
}

TEST(ExplorerTest, ParallelSweepMatchesSerialExactly)
{
    // A memory-screened minGPT grid on the tiny system exercises
    // all three point outcomes (feasible, infeasible, over-memory):
    // without activation recomputation the low-parallelism points
    // blow the 4 GB device, batch 4 starves the DP*PP = 16 points.
    core::AmpedModel amped(model::presets::minGpt85M(),
                           hw::presets::tinyTest(),
                           hw::MicrobatchEfficiency(0.8, 4.0),
                           testSystem());
    core::MemoryOptions screen_options;
    screen_options.activationRecompute = false;
    const core::MemoryModel screen(
        model::OpCounter(model::presets::minGpt85M()),
        hw::presets::tinyTest(), screen_options);
    core::TrainingJob job;
    job.batchSize = 64.0;
    job.numBatchesOverride = 1.0;
    const std::vector<double> batches = {4.0, 64.0, 256.0};

    Explorer serial(amped);
    serial.setThreads(1);
    serial.setMemoryModel(screen);
    Explorer parallel(amped);
    parallel.setThreads(4);
    parallel.setMemoryModel(screen);

    const auto a = serial.sweepAll(batches, job);
    const auto b = parallel.sweepAll(batches, job);

    EXPECT_GT(a.skipped, 0u);
    EXPECT_GT(a.memorySkipped, 0u);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.memorySkipped, b.memorySkipped);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    ASSERT_GT(a.entries.size(), 0u);
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].mapping.toString(),
                  b.entries[i].mapping.toString());
        EXPECT_EQ(a.entries[i].batchSize, b.entries[i].batchSize);
        EXPECT_EQ(a.entries[i].result.totalTime,
                  b.entries[i].result.totalTime);
        EXPECT_EQ(a.entries[i].result.timePerBatch,
                  b.entries[i].result.timePerBatch);
    }
    // The rendered artifacts are byte-identical.
    EXPECT_EQ(sweepTable(a.entries), sweepTable(b.entries));
    EXPECT_EQ(sweepCsv(a.entries), sweepCsv(b.entries));
}

TEST(ExplorerTest, SweepJobsCrossesMappingsWithJobVariants)
{
    Explorer explorer(testModel());
    const std::vector<mapping::ParallelismConfig> mappings = {
        mapping::makeMapping(1, 1, 4, 1, 1, 4), // DP 16
        mapping::makeMapping(4, 1, 1, 1, 1, 4), // TP 4 x DP 4
    };
    std::vector<core::TrainingJob> jobs;
    for (double ub : {8.0, 32.0}) {
        core::TrainingJob job = testJob(); // batch 256
        job.microbatching.microbatchSizeOverride = ub;
        jobs.push_back(job);
    }
    const auto result = explorer.sweepJobs(mappings, jobs);
    // DP 16 leaves a per-replica batch of 16: ub = 32 does not fit
    // (half a microbatch), every other point does.
    EXPECT_EQ(result.skipped, 1u);
    ASSERT_EQ(result.entries.size(), 3u);
    // Grid order is mapping-major with job order preserved.
    EXPECT_EQ(result.entries[0].result.microbatchSize, 8.0);
    EXPECT_EQ(result.entries[1].result.microbatchSize, 8.0);
    EXPECT_EQ(result.entries[2].result.microbatchSize, 32.0);
}

TEST(ExplorerTest, SweepCsvWithNoEntriesStillHasPhaseHeaders)
{
    const std::string csv = sweepCsv({});
    EXPECT_NE(csv.find("mapping,tp,pp,dp,batch,microbatch"),
              std::string::npos);
    EXPECT_NE(csv.find("pipeline_bubble_seconds"),
              std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);
}

TEST(AblationTest, BubbleOverlapSweepIsMonotonic)
{
    AblationRunner runner(model::presets::tinyTest(),
                          hw::presets::tinyTest(),
                          hw::MicrobatchEfficiency(0.8, 4.0),
                          testSystem());
    const auto m = mapping::makeMapping(1, 4, 1, 1, 2, 2); // PP = 8
    const auto points =
        runner.sweepBubbleOverlap({0.0, 0.5, 1.0}, m, testJob());
    ASSERT_EQ(points.size(), 3u);
    EXPECT_DOUBLE_EQ(points[0].result.perBatch.bubble, 0.0);
    EXPECT_LT(points[1].result.perBatch.bubble,
              points[2].result.perBatch.bubble);
    EXPECT_EQ(points[1].label, "R=0.50");
}

TEST(AblationTest, ZeroOverheadSweepGrowsComm)
{
    AblationRunner runner(model::presets::tinyTest(),
                          hw::presets::tinyTest(),
                          hw::MicrobatchEfficiency(0.8, 4.0),
                          testSystem());
    const auto m = mapping::makeMapping(4, 1, 1, 1, 1, 4);
    const auto points =
        runner.sweepZeroOverhead({0.0, 1.0}, m, testJob());
    EXPECT_LT(points[0].result.perBatch.communication(),
              points[1].result.perBatch.communication());
}

TEST(AblationTest, GradAllReduceComparisonHasTwoPoints)
{
    AblationRunner runner(model::presets::tinyTest(),
                          hw::presets::tinyTest(),
                          hw::MicrobatchEfficiency(0.8, 4.0),
                          testSystem());
    const auto m = mapping::makeMapping(1, 1, 4, 1, 1, 4);
    const auto points = runner.compareGradAllReduce(m, testJob());
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].label, "hierarchical-allreduce");
    // Flat all-reduce over the slow inter tier is slower.
    EXPECT_LT(points[0].result.timePerBatch,
              points[1].result.timePerBatch);
}

TEST(AblationTest, EfficiencyFloorChangesSmallMicrobatchPoints)
{
    AblationRunner runner(model::presets::tinyTest(),
                          hw::presets::tinyTest(),
                          hw::MicrobatchEfficiency(0.8, 64.0),
                          testSystem());
    // DP*PP = 16 with batch 64 -> ub = 4: raw eff ~ 0.047.
    const auto m = mapping::makeMapping(1, 1, 4, 1, 1, 4);
    core::TrainingJob job = testJob();
    job.batchSize = 64.0;
    const auto points =
        runner.sweepEfficiencyFloor({0.0, 0.25}, m, job);
    ASSERT_EQ(points.size(), 2u);
    // A floor of 25 % speeds up the floored configuration.
    EXPECT_GT(points[0].result.timePerBatch,
              points[1].result.timePerBatch);
}

} // namespace
} // namespace explore
} // namespace amped

/**
 * @file
 * Concurrency stress tests for the shared-state surfaces that the
 * ThreadSanitizer CI job watches: concurrent sweepAll and
 * optimizeOver callers on the shared pool and sweep counters, the
 * metrics registry, and concurrent thread pools sharing the global
 * instrumentation counters.
 *
 * These tests pass trivially under a data-race-free implementation;
 * their value is the *interleavings* they force when the suite runs
 * under TSan (ci.yml `tsan` job, AMPED_THREADS=4): identical sweeps
 * from several host threads, snapshot-during-write on the registry,
 * and counter updates from pools owned by different host threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/memory_model.hpp"
#include "entry_bits.hpp"
#include "explore/explorer.hpp"
#include "explore/optimizer.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "obs/metrics.hpp"

namespace amped {
namespace {

net::SystemConfig
stressSystem()
{
    net::SystemConfig sys;
    sys.name = "stress-4x4";
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
stressModel()
{
    return core::AmpedModel(model::presets::tinyTest(),
                            hw::presets::tinyTest(),
                            hw::MicrobatchEfficiency(0.8, 4.0),
                            stressSystem());
}

core::TrainingJob
stressJob()
{
    core::TrainingJob job;
    job.batchSize = 256.0;
    job.numBatchesOverride = 10.0;
    return job;
}

/**
 * Several host threads issue the *same* sweepAll at once, racing
 * each other on the shared pool and the sweep counters.  Every
 * caller must observe an identical grid.
 */
TEST(ConcurrencyStressTest, ConcurrentSweepAllSameKeyAgree)
{
    constexpr int kCallers = 4;
    const std::vector<double> batches{208.0};

    std::vector<explore::SweepResult> results(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            explore::Explorer explorer(stressModel());
            explorer.setThreads(2);
            results[static_cast<std::size_t>(t)] =
                explorer.sweepAll(batches, stressJob());
        });
    }
    for (auto &caller : callers)
        caller.join();

    const auto &first = results.front();
    ASSERT_GT(first.entries.size(), 0u);
    for (const auto &result : results) {
        ASSERT_EQ(result.entries.size(), first.entries.size());
        EXPECT_EQ(result.skipped, first.skipped);
        for (std::size_t i = 0; i < first.entries.size(); ++i) {
            // Bitwise equality: concurrent evaluations of one grid
            // must be indistinguishable.
            EXPECT_EQ(result.entries[i].result.totalTime,
                      first.entries[i].result.totalTime);
            EXPECT_EQ(result.entries[i].batchSize,
                      first.entries[i].batchSize);
        }
    }
}

/**
 * Distinct grids from concurrent callers: each must come back with
 * only its own batch size.
 */
TEST(ConcurrencyStressTest, ConcurrentSweepAllDistinctKeys)
{
    constexpr int kCallers = 4;
    std::vector<explore::SweepResult> results(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            explore::Explorer explorer(stressModel());
            explorer.setThreads(2);
            // Unique batch size per caller.
            const std::vector<double> batches{212.0 + 4.0 * t};
            results[static_cast<std::size_t>(t)] =
                explorer.sweepAll(batches, stressJob());
        });
    }
    for (auto &caller : callers)
        caller.join();

    for (int t = 0; t < kCallers; ++t) {
        const auto &result = results[static_cast<std::size_t>(t)];
        ASSERT_GT(result.entries.size(), 0u);
        for (const auto &entry : result.entries)
            EXPECT_EQ(entry.batchSize, 212.0 + 4.0 * t);
    }
}

using testutil::entryBits;

/**
 * Several host threads run memory-screened optimizeOver searches on
 * distinct grids at once, as amped serve runs optimize requests.
 * They race each other on the shared pool through the kernel's table
 * fill, the cache prime, the screen and the waves.  Each result must
 * equal a serial run of the same grid, byte for byte.
 */
TEST(ConcurrencyStressTest, ConcurrentOptimizeOverAgree)
{
    constexpr int kCallers = 4;
    const core::AmpedModel model(model::presets::minGpt85M(),
                                 hw::presets::tinyTest(),
                                 hw::MicrobatchEfficiency(0.8, 4.0),
                                 stressSystem());
    // Without recomputation, low-parallelism minGPT points overflow
    // the tiny 4 GB device, so the screen rejects part of each grid.
    core::MemoryOptions screen_options;
    screen_options.activationRecompute = false;
    const core::MemoryModel screen(
        model::OpCounter(model::presets::minGpt85M()),
        hw::presets::tinyTest(), screen_options);
    const auto mappings =
        mapping::MappingSpace(stressSystem()).enumerate();

    std::vector<explore::OptimizerRequest> requests(kCallers);
    for (int t = 0; t < kCallers; ++t) {
        auto &request = requests[static_cast<std::size_t>(t)];
        for (int i = 0; i < 24; ++i)
            request.batchSizes.push_back(16.0 + 4.0 * i + t);
        request.jobTemplate.totalTrainingTokens = 1e9;
        request.topK = 4;
    }
    const auto search = [&](const explore::OptimizerRequest &request,
                            unsigned threads) {
        explore::Optimizer optimizer(model);
        optimizer.setThreads(threads);
        optimizer.setMemoryModel(screen);
        return optimizer.optimizeOver(mappings, request);
    };

    std::vector<explore::OptimizerResult> results(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            const auto i = static_cast<std::size_t>(t);
            results[i] = search(requests[i], 2);
        });
    }
    for (auto &caller : callers)
        caller.join();

    for (std::size_t t = 0; t < kCallers; ++t) {
        const explore::OptimizerResult serial = search(requests[t], 1);
        const explore::OptimizerResult &got = results[t];
        const auto &a = serial.counters;
        const auto &b = got.counters;
        EXPECT_GT(a.prunedByMemory, 0u) << "caller " << t;
        EXPECT_GT(a.prunedByBound, 0u) << "caller " << t;
        EXPECT_EQ(got.status, serial.status) << "caller " << t;
        EXPECT_EQ(b.points, a.points) << "caller " << t;
        EXPECT_EQ(b.cells, a.cells) << "caller " << t;
        EXPECT_EQ(b.evaluated, a.evaluated) << "caller " << t;
        EXPECT_EQ(b.prunedByMemory, a.prunedByMemory) << "caller " << t;
        EXPECT_EQ(b.prunedByBound, a.prunedByBound) << "caller " << t;
        EXPECT_EQ(b.skippedInfeasible, a.skippedInfeasible)
            << "caller " << t;
        EXPECT_EQ(b.feasible, a.feasible) << "caller " << t;
        EXPECT_EQ(b.infeasible, a.infeasible) << "caller " << t;
        EXPECT_EQ(b.overMemory, a.overMemory) << "caller " << t;
        EXPECT_EQ(b.failed, a.failed) << "caller " << t;
        EXPECT_EQ(b.cancelledUnvisited, a.cancelledUnvisited)
            << "caller " << t;
        ASSERT_EQ(got.topK.size(), serial.topK.size()) << "caller " << t;
        ASSERT_FALSE(serial.topK.empty()) << "caller " << t;
        for (std::size_t r = 0; r < serial.topK.size(); ++r) {
            EXPECT_EQ(got.topK[r].mapping.toString(),
                      serial.topK[r].mapping.toString())
                << "caller " << t << " rank " << r;
            EXPECT_EQ(entryBits(got.topK[r]), entryBits(serial.topK[r]))
                << "caller " << t << " rank " << r;
        }
    }
}

/**
 * Readers snapshot and render the registry while writers are
 * mid-update.  TSan flags any unguarded read of counter/gauge/
 * histogram state; the final totals check that no update was lost.
 */
TEST(ConcurrencyStressTest, SnapshotDuringConcurrentWrites)
{
    obs::MetricsRegistry registry;
    obs::Counter &counter = registry.counter("stress.items");
    obs::Gauge &gauge = registry.gauge("stress.level");
    obs::Histogram &histogram = registry.histogram("stress.seconds", true);

    constexpr int kWriters = 3;
    constexpr int kOpsPerWriter = 20000;
    std::atomic<bool> stop{false};

    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto snap = registry.snapshot();
            EXPECT_GE(snap.size(), 3u);
            const std::string text =
                registry.renderText(obs::RenderMode::deterministic);
            EXPECT_NE(text.find("stress.items"), std::string::npos);
        }
    });

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < kOpsPerWriter; ++i) {
                counter.add(1);
                gauge.set(static_cast<double>(w));
                histogram.observe(1e-6 * (i + 1));
            }
        });
    }
    for (auto &writer : writers)
        writer.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    const auto snap = registry.snapshot();
    for (const auto &metric : snap) {
        if (metric.name == "stress.items") {
            EXPECT_EQ(metric.count, static_cast<std::uint64_t>(
                                        kWriters * kOpsPerWriter));
        }
        if (metric.name == "stress.seconds") {
            EXPECT_EQ(metric.count, static_cast<std::uint64_t>(
                                        kWriters * kOpsPerWriter));
        }
    }
}

/**
 * Pins the Histogram count/sum coherence contract: observe()
 * publishes the bucket and sum updates before the count (release),
 * and count() is an acquire load, so a reader that loads count()
 * *first* must see a sum and bucket total covering at least that
 * many observations.  Every observation here is exactly 1.0, which
 * turns the contract into two integer inequalities a racing reader
 * can check exactly: sum >= count and bucket-total >= count.  Before
 * the ordering fix, count ran ahead of sum and this test's reader
 * loop failed within a few thousand iterations.
 */
TEST(ConcurrencyStressTest, HistogramCountNeverAheadOfSum)
{
    obs::Histogram histogram;

    constexpr int kWriters = 4;
    constexpr int kOpsPerWriter = 50000;
    std::atomic<bool> stop{false};

    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            // Order matters: count first (acquire), then sum and
            // buckets — the invariant is only one-directional.
            const std::uint64_t count = histogram.count();
            const double sum = histogram.sum();
            std::uint64_t in_buckets = 0;
            for (int i = 0; i <= obs::Histogram::kNumBounds; ++i)
                in_buckets += histogram.bucketCount(i);
            EXPECT_GE(sum, static_cast<double>(count));
            EXPECT_GE(in_buckets, count);
        }
    });

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&] {
            for (int i = 0; i < kOpsPerWriter; ++i)
                histogram.observe(1.0);
        });
    }
    for (auto &writer : writers)
        writer.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(
                                     kWriters * kOpsPerWriter));
    EXPECT_DOUBLE_EQ(histogram.sum(),
                     static_cast<double>(kWriters * kOpsPerWriter));
}

/**
 * Each host thread owns its own pool (the Explorer-under-concurrent-
 * callers shape).  The per-index writes are private, but all pools
 * bump the same global instrumentation counters, which is exactly
 * the cross-pool state TSan needs to see contended.
 */
TEST(ConcurrencyStressTest, ConcurrentPoolsFromDistinctOwners)
{
    constexpr int kOwners = 3;
    constexpr std::size_t kItems = 5000;

    std::vector<std::vector<double>> outputs(
        kOwners, std::vector<double>(kItems, 0.0));
    std::vector<std::thread> owners;
    owners.reserve(kOwners);
    for (int o = 0; o < kOwners; ++o) {
        owners.emplace_back([&, o] {
            ThreadPool pool(2);
            auto &out = outputs[static_cast<std::size_t>(o)];
            pool.parallelFor(kItems, 64, [&](std::size_t i) {
                out[i] = std::sqrt(static_cast<double>(i + 1));
            });
        });
    }
    for (auto &owner : owners)
        owner.join();

    for (const auto &out : outputs) {
        for (std::size_t i = 0; i < kItems; ++i)
            ASSERT_EQ(out[i], std::sqrt(static_cast<double>(i + 1)));
    }
}

/**
 * Cancellation soak: concurrent sweepAll callers share children of
 * one token while another thread trips it mid-flight.  Under TSan
 * this races the token's latch against checkpoint polls from every
 * pool worker.  Whatever the interleaving, each caller must end in
 * a consistent state, and a final clean call must prove no stopped
 * state leaked into the next sweep.
 */
TEST(ConcurrencyStressTest, ConcurrentSweepAllRacingSharedCancel)
{
    constexpr int kCallers = 4;
    const std::vector<double> batches{216.0};

    const CancelToken parent = CancelToken::make();
    std::vector<explore::SweepResult> results(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            explore::Explorer explorer(stressModel());
            explorer.setThreads(2);
            explorer.setCancelToken(parent.child());
            results[static_cast<std::size_t>(t)] =
                explorer.sweepAll(batches, stressJob());
        });
    }
    std::thread canceller([&] { parent.cancel(); });
    for (auto &caller : callers)
        caller.join();
    canceller.join();

    for (const auto &result : results) {
        // Every ending is legal under the race; every ending must be
        // internally consistent.
        EXPECT_EQ(result.entries.size() + result.skipped +
                      result.memorySkipped,
                  result.visitedPoints);
        if (result.status == RunStatus::Completed)
            EXPECT_EQ(result.cancelledUnvisited, 0u);
        else
            EXPECT_EQ(result.status, RunStatus::Cancelled);
    }

    // The next sweep of the same grid runs to completion.
    explore::Explorer clean_explorer(stressModel());
    clean_explorer.setThreads(2);
    const explore::SweepResult clean =
        clean_explorer.sweepAll(batches, stressJob());
    EXPECT_EQ(clean.status, RunStatus::Completed);
    EXPECT_EQ(clean.cancelledUnvisited, 0u);
    ASSERT_GT(clean.entries.size(), 0u);
}

} // namespace
} // namespace amped

/**
 * @file
 * End-to-end cancellation tests for the long-running evaluation
 * surfaces: Explorer sweeps, the branch-and-bound
 * optimizer, the resilience Monte-Carlo, and the simulator schedule
 * entry checkpoints.  The load-bearing property throughout is the
 * determinism contract of common/cancel.hpp: a stopped run's partial
 * result is bit-identical to the same prefix of a full run at every
 * thread count, and a deadline stop is observed within one block
 * checkpoint of expiry (asserted through the cancellation-latency
 * histogram).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/thread_pool.hpp"
#include "core/resilience.hpp"
#include "explore/explorer.hpp"
#include "explore/optimizer.hpp"
#include "explore/sweep_kernel.hpp"
#include "hw/presets.hpp"
#include "mapping/parallelism.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "obs/metrics.hpp"
#include "sim/training_sim.hpp"

namespace amped {
namespace {

net::SystemConfig
cancelSystem()
{
    net::SystemConfig sys;
    sys.name = "cancel-4x4";
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
cancelModel()
{
    return core::AmpedModel(model::presets::tinyTest(),
                            hw::presets::tinyTest(),
                            hw::MicrobatchEfficiency(0.8, 4.0),
                            cancelSystem());
}

core::TrainingJob
cancelJob()
{
    core::TrainingJob job;
    job.batchSize = 256.0;
    job.numBatchesOverride = 10.0;
    return job;
}

/** The two results agree bit-for-bit on the first @p n entries. */
void
expectEntryPrefixEqual(const std::vector<explore::SweepEntry> &full,
                       const std::vector<explore::SweepEntry> &part,
                       std::size_t n)
{
    ASSERT_LE(n, full.size());
    ASSERT_EQ(part.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(part[i].mapping.toString(),
                  full[i].mapping.toString())
            << "entry " << i;
        ASSERT_EQ(part[i].batchSize, full[i].batchSize)
            << "entry " << i;
        // Bitwise: the prefix contract promises the *same doubles*,
        // not merely close ones.
        ASSERT_EQ(part[i].result.timePerBatch,
                  full[i].result.timePerBatch)
            << "entry " << i;
        ASSERT_EQ(part[i].result.totalTime, full[i].result.totalTime)
            << "entry " << i;
    }
}

/**
 * A sweep tripped at the second block checkpoint stops with exactly
 * one SoA block visited, and its entries/counters are bit-identical
 * to the same prefix of the full run, at thread counts 1, 2, and 8.
 */
TEST(ExplorerCancelTest, TrippedSweepIsDeterministicPrefixOfFullRun)
{
    const auto mappings =
        mapping::MappingSpace(cancelSystem()).enumerate(0);
    ASSERT_GT(mappings.size(), 0u);
    // Enough batch sizes that the grid spans more than one SoA
    // block, so a trip at the second checkpoint leaves work undone.
    std::vector<double> batches;
    while (mappings.size() * batches.size() <=
           explore::kSweepBlockPoints)
        batches.push_back(256.0 + 8.0 * batches.size());
    const std::size_t total = mappings.size() * batches.size();

    explore::Explorer full_explorer(cancelModel());
    full_explorer.setThreads(4);
    const explore::SweepResult full =
        full_explorer.sweep(mappings, batches, cancelJob());
    ASSERT_EQ(full.status, RunStatus::Completed);
    ASSERT_EQ(full.visitedPoints, total);
    ASSERT_EQ(full.cancelledUnvisited, 0u);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const CancelToken token = CancelToken::make();
        token.tripAfterCheckpoints(2);

        explore::Explorer explorer(cancelModel());
        explorer.setThreads(threads);
        explorer.setCancelToken(token);
        const explore::SweepResult part =
            explorer.sweep(mappings, batches, cancelJob());

        EXPECT_EQ(part.status, RunStatus::Cancelled);
        // The first block checkpoint passed, the second tripped:
        // exactly one block of points was visited.
        EXPECT_EQ(part.visitedPoints, explore::kSweepBlockPoints);
        EXPECT_EQ(part.visitedPoints + part.cancelledUnvisited, total);
        // Every visited point landed in exactly one bucket.
        EXPECT_EQ(part.entries.size() + part.skipped +
                      part.memorySkipped,
                  part.visitedPoints);
        EXPECT_EQ(part.failed, 0u);
        expectEntryPrefixEqual(full.entries, part.entries,
                               part.entries.size());
    }
}

/**
 * A deadline that expires before the sweep starts is caught by the
 * first block checkpoint: zero points visited, and the cancellation
 * latency histogram records exactly one observation — the stop is
 * observed within one block checkpoint of expiry, with the latency
 * equal to the clock delta under the injected ManualClock.
 */
TEST(ExplorerCancelTest, DeadlineStopRecordsOneLatencyObservation)
{
    const auto mappings =
        mapping::MappingSpace(cancelSystem()).enumerate(0);
    const std::vector<double> batches{256.0, 512.0, 1024.0};

    ManualClock clock(0.0);
    obs::MetricsRegistry registry;
    const CancelToken token =
        CancelToken::make(Deadline::after(1.0, clock), &registry);
    clock.set(1.25); // Expired 0.25 s ago by the injected clock.

    explore::Explorer explorer(cancelModel());
    explorer.setThreads(2);
    explorer.setCancelToken(token);
    const explore::SweepResult part =
        explorer.sweep(mappings, batches, cancelJob());

    EXPECT_EQ(part.status, RunStatus::DeadlineExceeded);
    EXPECT_EQ(part.visitedPoints, 0u);
    EXPECT_EQ(part.cancelledUnvisited, mappings.size() * batches.size());
    EXPECT_TRUE(part.entries.empty());

    // Exactly one checkpoint observed the stop, 0.25 s after expiry —
    // the histogram is the proof that the run stopped within one
    // block checkpoint of the deadline.
    auto &latency = registry.histogram("common.cancel.latency_seconds",
                                       /*timing=*/true);
    EXPECT_EQ(latency.count(), 1u);
    EXPECT_DOUBLE_EQ(latency.sum(), 0.25);
    EXPECT_EQ(registry.counter("common.cancel.observed").value(), 1u);
}

/**
 * The optimizer's wave checkpoints stop the search at a
 * thread-count-independent boundary: the best-so-far ranking and
 * every counter agree bit-for-bit at thread counts 1, 2, and 8, and
 * the disposition buckets still partition the grid.
 */
TEST(OptimizerCancelTest, BestSoFarIsDeterministicAcrossThreadCounts)
{
    const auto mappings =
        mapping::MappingSpace(cancelSystem()).enumerate(0);
    explore::OptimizerRequest request;
    request.jobTemplate = cancelJob();
    // Force a second wave despite the (deliberately tight) bound:
    // each batch size appears three times, so the first 16-point
    // wave cannot hold every copy of its own winners, and the
    // leftover copies — whose bound equals an already-ranked exact
    // time — survive the strictly-greater prune into wave two.
    request.topK = 16;
    for (std::size_t i = 0; i < 40; ++i)
        for (int copy = 0; copy < 3; ++copy)
            request.batchSizes.push_back(256.0 + 16.0 * i);

    std::vector<explore::OptimizerResult> runs;
    for (const unsigned threads : {1u, 2u, 8u}) {
        const CancelToken token = CancelToken::make();
        // Wave one flushes; wave two's checkpoint trips, leaving a
        // non-empty best-so-far ranking and an unvisited remainder.
        token.tripAfterCheckpoints(2);
        explore::Optimizer optimizer(cancelModel());
        optimizer.setThreads(threads);
        optimizer.setCancelToken(token);
        runs.push_back(optimizer.optimizeOver(mappings, request));
    }

    for (std::size_t r = 0; r < runs.size(); ++r) {
        SCOPED_TRACE("run " + std::to_string(r));
        const auto &run = runs[r];
        EXPECT_EQ(run.status, RunStatus::Cancelled);
        EXPECT_FALSE(run.heterogeneous.has_value());
        const auto &c = run.counters;
        EXPECT_GT(c.evaluated, 0u);
        EXPECT_GT(c.cancelledUnvisited, 0u);
        EXPECT_EQ(c.points, c.prunedByMemory + c.prunedByBound +
                                c.skippedInfeasible + c.evaluated +
                                c.cancelledUnvisited);
        EXPECT_EQ(c.evaluated, c.feasible + c.infeasible +
                                   c.overMemory + c.failed);
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        SCOPED_TRACE("run " + std::to_string(r) + " vs run 0");
        const auto &a = runs[0];
        const auto &b = runs[r];
        const auto &ca = a.counters;
        const auto &cb = b.counters;
        EXPECT_EQ(ca.evaluated, cb.evaluated);
        EXPECT_EQ(ca.prunedByBound, cb.prunedByBound);
        EXPECT_EQ(ca.prunedByMemory, cb.prunedByMemory);
        EXPECT_EQ(ca.skippedInfeasible, cb.skippedInfeasible);
        EXPECT_EQ(ca.cancelledUnvisited, cb.cancelledUnvisited);
        EXPECT_EQ(ca.feasible, cb.feasible);
        expectEntryPrefixEqual(a.topK, b.topK, a.topK.size());
    }
}

/**
 * A stopped sweepAll leaves nothing behind: the next identical call
 * runs the full grid, and so does the one after it.
 */
TEST(ExplorerCancelTest, SweepAllDoesNotCacheStoppedResults)
{
    const std::vector<double> batches{193.0};

    explore::Explorer explorer(cancelModel());
    explorer.setThreads(2);

    const CancelToken token = CancelToken::make();
    token.tripAfterCheckpoints(1); // Stop before any block.
    explorer.setCancelToken(token);
    const explore::SweepResult stopped =
        explorer.sweepAll(batches, cancelJob());
    EXPECT_EQ(stopped.status, RunStatus::Cancelled);
    EXPECT_EQ(stopped.visitedPoints, 0u);

    explorer.setCancelToken(CancelToken());
    const explore::SweepResult clean =
        explorer.sweepAll(batches, cancelJob());
    EXPECT_EQ(clean.status, RunStatus::Completed);
    EXPECT_EQ(clean.visitedPoints,
              clean.entries.size() + clean.skipped +
                  clean.memorySkipped);
    EXPECT_GT(clean.visitedPoints, 0u);
    EXPECT_EQ(clean.cancelledUnvisited, 0u);

    // And a repeat returns the Completed grid again, not the
    // stopped prefix.
    const explore::SweepResult cached =
        explorer.sweepAll(batches, cancelJob());
    EXPECT_EQ(cached.status, RunStatus::Completed);
    EXPECT_EQ(cached.visitedPoints, clean.visitedPoints);
    expectEntryPrefixEqual(clean.entries, cached.entries,
                           clean.entries.size());
}

/**
 * A tripped Monte-Carlo stops at a replication-block boundary, and
 * the prefix statistics are bitwise equal to a full run over exactly
 * that many replications — independent of the worker cap, because
 * replication r always draws from Rng(seed + r).
 */
TEST(ResilienceCancelTest, MonteCarloPrefixMatchesFullRunBitwise)
{
    core::ResilienceConfig config;
    config.mtbfSeconds = Seconds{1000.0};
    config.checkpointWriteSeconds = Seconds{5.0};
    config.restartSeconds = Seconds{10.0};
    config.checkpointIntervalSeconds = Seconds{50.0};
    const Seconds solve{2000.0};
    constexpr std::uint64_t kSeed = 42;

    ThreadPool pool(4);
    const core::MonteCarloStats full = core::monteCarloTimeToTrain(
        solve, config, /*replications=*/4096, kSeed, pool);
    ASSERT_EQ(full.status, RunStatus::Completed);
    ASSERT_EQ(full.replications, 4096u);

    for (const std::size_t workers : {std::size_t{1},
                                      std::size_t{8}}) {
        SCOPED_TRACE("max_workers=" + std::to_string(workers));
        const CancelToken token = CancelToken::make();
        // First block runs, the second block's checkpoint trips.
        token.tripAfterCheckpoints(2);
        const core::MonteCarloStats part =
            core::monteCarloTimeToTrain(solve, config,
                                        /*replications=*/10000,
                                        kSeed, pool, workers, token);
        EXPECT_EQ(part.status, RunStatus::Cancelled);
        EXPECT_EQ(part.replications, full.replications);
        EXPECT_EQ(part.meanSeconds.value(), full.meanSeconds.value());
        EXPECT_EQ(part.stddevSeconds.value(),
                  full.stddevSeconds.value());
        EXPECT_EQ(part.standardError.value(),
                  full.standardError.value());
    }
}

/**
 * Simulator schedules are all-or-nothing: a stop at the schedule
 * entry checkpoint returns an empty (but well-formed) outcome, and
 * an inert token leaves results bit-identical to an uninstrumented
 * simulator.
 */
TEST(SimulatorCancelTest, StoppedScheduleReturnsEmptyOutcome)
{
    sim::TrainingSimulator simulator(
        model::presets::tinyTest(), hw::presets::tinyTest(),
        hw::MicrobatchEfficiency(0.8, 4.0),
        net::LinkConfig{"intra", Seconds{1e-6},
                        BitsPerSecond{2.4e12}});
    const CancelToken token = CancelToken::make();
    token.cancel();
    simulator.setCancelToken(token);

    const sim::SimOutcome outcomes[] = {
        simulator.simulateDataParallelStep(4, 8.0),
        simulator.simulateGPipeStep(4, 8.0, 4),
        simulator.simulateTensorParallelStep(4, 8.0),
    };
    for (const auto &outcome : outcomes) {
        EXPECT_EQ(outcome.status, RunStatus::Cancelled);
        EXPECT_EQ(outcome.stepTime, 0.0);
        ASSERT_NE(outcome.graph, nullptr);
        EXPECT_EQ(outcome.graph->taskCount(), 0u);
        EXPECT_TRUE(outcome.deviceIds.empty());
    }
}

TEST(SimulatorCancelTest, InertTokenLeavesResultsUnchanged)
{
    const auto make = [] {
        return sim::TrainingSimulator(
            model::presets::tinyTest(), hw::presets::tinyTest(),
            hw::MicrobatchEfficiency(0.8, 4.0),
            net::LinkConfig{"intra", Seconds{1e-6},
                            BitsPerSecond{2.4e12}});
    };
    auto plain = make();
    const sim::SimOutcome reference =
        plain.simulateDataParallelStep(4, 8.0);

    auto instrumented = make();
    instrumented.setCancelToken(CancelToken());
    const sim::SimOutcome watched =
        instrumented.simulateDataParallelStep(4, 8.0);

    EXPECT_EQ(watched.status, RunStatus::Completed);
    EXPECT_EQ(watched.stepTime, reference.stepTime);
    EXPECT_EQ(watched.raw.makespan, reference.raw.makespan);
    ASSERT_NE(watched.graph, nullptr);
    EXPECT_EQ(watched.graph->taskCount(),
              reference.graph->taskCount());
}

} // namespace
} // namespace amped

/**
 * @file
 * Case Study I as a search problem: `amped optimize` vs the
 * exhaustive sweep on the full Megatron-145B / 1024-A100 grid (360
 * mappings x 2800 global batch sizes = 1,008,000 points, the same
 * grid the sweep perf gate measures).  The harness holds the
 * optimizer to its two contracts from DESIGN.md "Branch-and-bound
 * over the additive model":
 *
 *  - identity: the top-3 strategies are bit-identical to sorting the
 *    exhaustive sweep by (total time, grid index) and truncating;
 *  - economy: the exact batch kernel runs on < 10 % of the screened
 *    points — the exact-key prune drops the rest.
 *
 * Both are require()d (the bench exits nonzero on violation) and the
 * winning strategy, day figures, and prune counters are emitted as
 * golden metrics so tools/golden_check pins them at 1 and 4 threads.
 */

#include <chrono>
#include <cstring>
#include <iostream>

#include "common/units.hpp"
#include "case_study_util.hpp"
#include "core/memory_model.hpp"
#include "explore/optimizer.hpp"
#include "net/system_config.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace amped;

/** The 2800-point batch axis of the sweep perf gate: 2048 + 8 i. */
std::vector<double>
batchAxis()
{
    std::vector<double> batches;
    batches.reserve(2800);
    for (std::size_t i = 0; i < 2800; ++i)
        batches.push_back(2048.0 + 8.0 * static_cast<double>(i));
    return batches;
}

/** Bitwise equality of the fields the CSV/table layers render. */
bool
sameEntry(const explore::SweepEntry &a, const explore::SweepEntry &b)
{
    return a.mapping.toString() == b.mapping.toString() &&
           std::memcmp(&a.batchSize, &b.batchSize,
                       sizeof a.batchSize) == 0 &&
           std::memcmp(&a.result, &b.result, sizeof a.result) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::GoldenOut golden(argc, argv);

    std::cout << "=== Strategy search vs exhaustive sweep "
                 "(Megatron 145B, 1024 A100s) ===\n\n";

    const auto system = net::presets::a100Cluster1024();
    const auto model = bench::caseStudyModel(system);
    // The uncapped 360-mapping enumeration — the exact 1,008,000-
    // point grid the CI sweep A/B (tools/sweep_ab.py) times.
    const auto mappings =
        mapping::MappingSpace(system).enumerate();
    const auto batches = batchAxis();
    const core::MemoryModel memory_model(
        model::OpCounter(model::presets::megatron145B()),
        hw::presets::a100());
    const std::size_t top_k = 3;

    explore::Optimizer optimizer(model);
    optimizer.setMemoryModel(memory_model);
    const auto t0 = std::chrono::steady_clock::now();
    explore::OptimizerRequest request;
    request.batchSizes = batches;
    request.jobTemplate = bench::caseStudyJob(batches.front());
    request.topK = top_k;
    const auto found = optimizer.optimizeOver(mappings, request);
    const double optimize_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    explore::Explorer explorer(model);
    explorer.setMemoryModel(memory_model);
    auto sweep = explorer.sweep(
        mappings, batches, bench::caseStudyJob(batches.front()));
    explore::Explorer::sortByTime(sweep.entries, explorer.threads());
    require(sweep.entries.size() >= top_k,
            "exhaustive sweep produced fewer than ", top_k,
            " feasible strategies");
    sweep.entries.resize(top_k);

    // Contract 1: identity with the sorted exhaustive sweep.
    require(found.topK.size() == top_k, "optimizer returned ",
            found.topK.size(), " strategies, wanted ", top_k);
    for (std::size_t rank = 0; rank < top_k; ++rank)
        if (!(sameEntry(found.topK[rank], sweep.entries[rank])))
            fatal("rank-", rank + 1,
                  " strategy differs from the exhaustive sweep: "
                  "optimizer says ",
                  found.topK[rank].mapping.toString(),
                  ", sweep says ",
                  sweep.entries[rank].mapping.toString());

    // Contract 2: the exact kernel ran on < 10 % of the grid.
    const auto &c = found.counters;
    const double evaluated_fraction =
        static_cast<double>(c.evaluated) /
        static_cast<double>(c.points);
    require(evaluated_fraction < 0.10,
            "bound too weak: evaluated ", c.evaluated, " of ",
            c.points, " points");

    const auto &best = found.topK.front();
    std::cout << "grid: " << c.points << " points ("
              << c.points / batches.size() << " mappings x "
              << batches.size() << " batch sizes)\n"
              << "best: " << best.mapping.toString() << " at B = "
              << units::formatFixed(best.batchSize, 0) << " — "
              << units::formatFixed(best.result.trainingDays(), 1)
              << " days\n"
              << "evaluated " << c.evaluated << " points ("
              << units::formatFixed(evaluated_fraction * 100.0, 2)
              << " %); pruned " << c.prunedByBound
              << " by bound, " << c.prunedByMemory
              << " by memory, skipped " << c.skippedInfeasible
              << " infeasible\n"
              << "search took "
              << units::formatFixed(optimize_seconds, 2)
              << " s; exhaustive agreement: top-" << top_k
              << " bit-identical\n";

    golden.add("optimizer/grid/points",
               static_cast<double>(c.points));
    golden.add("optimizer/grid/mappings",
               static_cast<double>(c.points / batches.size()));
    golden.add("optimizer/counters/evaluated",
               static_cast<double>(c.evaluated));
    golden.add("optimizer/counters/pruned_by_bound",
               static_cast<double>(c.prunedByBound));
    golden.add("optimizer/counters/pruned_by_memory",
               static_cast<double>(c.prunedByMemory));
    golden.add("optimizer/counters/skipped_infeasible",
               static_cast<double>(c.skippedInfeasible));
    golden.add("optimizer/counters/failed",
               static_cast<double>(c.failed));

    // The same totals flow through the metrics registry (the CLI's
    // run reports read them from there); pin that plumbing too.
    auto &metrics = obs::MetricsRegistry::global();
    golden.add("optimizer/obs/evaluated",
               static_cast<double>(
                   metrics.counter("explore.optimize.evaluated")
                       .value()));
    golden.add("optimizer/obs/pruned_by_bound",
               static_cast<double>(
                   metrics
                       .counter("explore.optimize.pruned_by_bound")
                       .value()));

    golden.add("optimizer/best/tp",
               static_cast<double>(best.mapping.tp()));
    golden.add("optimizer/best/pp",
               static_cast<double>(best.mapping.pp()));
    golden.add("optimizer/best/dp",
               static_cast<double>(best.mapping.dp()));
    golden.add("optimizer/best/batch", best.batchSize);
    golden.add("optimizer/best/days",
               best.result.trainingDays());
    golden.add("optimizer/best/tflops_per_gpu",
               best.result.achievedFlopsPerGpu / 1e12);
    for (std::size_t rank = 0; rank < top_k; ++rank)
        golden.add("optimizer/top" + std::to_string(rank + 1) +
                       "/days",
                   found.topK[rank].result.trainingDays());
    return golden.finish();
}

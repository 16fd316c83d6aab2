/**
 * @file
 * google-benchmark microbenchmarks of the library itself: evaluator
 * latency, mapping-space enumeration and full sweeps, and the
 * discrete-event engine's task throughput.  These quantify the claim
 * that AMPeD makes exhaustive design-space exploration practical
 * (one evaluation is microseconds; a full 360-mapping sweep is
 * milliseconds).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "case_study_util.hpp"
#include "common/thread_pool.hpp"
#include "core/amped_model.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"
#include "explore/optimizer.hpp"
#include "hw/presets.hpp"
#include "mapping/parallelism.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "obs/json.hpp"
#include "sim/training_sim.hpp"
#include "validate/calibrations.hpp"

namespace {

using namespace amped;
using bench::caseStudyModel;

void
BM_EvaluateOneMapping(benchmark::State &state)
{
    const auto model = caseStudyModel(net::presets::a100Cluster1024());
    const auto mapping = mapping::makeMapping(8, 1, 1, 1, 2, 64);
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evaluate(mapping, job));
    }
}
BENCHMARK(BM_EvaluateOneMapping);

void
BM_EnumerateMappingSpace(benchmark::State &state)
{
    const auto system = net::presets::a100Cluster1024();
    for (auto _ : state) {
        mapping::MappingSpace space(system);
        benchmark::DoNotOptimize(space.enumerate());
    }
}
BENCHMARK(BM_EnumerateMappingSpace);

/** The >= 200-point grid the golden mode sweeps. */
const std::vector<double> &
sweepBatches()
{
    static const std::vector<double> batches = {2048.0, 4096.0,
                                                8192.0, 16384.0};
    return batches;
}

/** The 360-mapping space of the 1024-GPU case-study system. */
const std::vector<mapping::ParallelismConfig> &
sweepGridMappings()
{
    static const std::vector<mapping::ParallelismConfig> mappings =
        mapping::MappingSpace(net::presets::a100Cluster1024())
            .enumerate();
    return mappings;
}

/**
 * Sweep throughput on an *un-memoized* sweep (Explorer::sweep; a
 * cached answer would measure a lookup instead of evaluation).  The
 * arg is the thread cap (0 = AMPED_THREADS or all cores).  Items are
 * grid points; bytes are the EvaluationResult payload produced per
 * point.
 */
void
BM_SweepEngineThroughput(benchmark::State &state)
{
    explore::Explorer explorer(
        caseStudyModel(net::presets::a100Cluster1024()));
    explorer.setThreads(static_cast<unsigned>(state.range(0)));
    static const std::vector<double> batches = [] {
        std::vector<double> b;
        b.reserve(16);
        for (int i = 0; i < 16; ++i)
            b.push_back(2048.0 + 512.0 * i);
        return b;
    }();
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;

    std::size_t points = 0;
    for (auto _ : state) {
        const auto sweep =
            explorer.sweep(sweepGridMappings(), batches, job);
        benchmark::DoNotOptimize(&sweep);
        points = sweep.entries.size() + sweep.skipped +
                 sweep.memorySkipped;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(points));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(points *
                                  sizeof(core::EvaluationResult)));
    state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_SweepEngineThroughput)->Arg(1)->Arg(0)->UseRealTime();

void
BM_SimulateDataParallelStep(benchmark::State &state)
{
    const std::int64_t devices = state.range(0);
    sim::TrainingSimulator simulator(
        model::presets::minGpt85M(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.simulateDataParallelStep(devices, 32.0));
    }
}
BENCHMARK(BM_SimulateDataParallelStep)->Arg(2)->Arg(8)->Arg(16);

void
BM_SimulateGPipeStep(benchmark::State &state)
{
    const std::int64_t microbatches = state.range(0);
    sim::TrainingSimulator simulator(
        model::presets::minGptPipeline(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.simulateGPipeStep(8, 8.0, microbatches));
    }
}
BENCHMARK(BM_SimulateGPipeStep)->Arg(8)->Arg(32)->Arg(128);

void
BM_EfficiencyFit(benchmark::State &state)
{
    hw::EfficiencyFitter fitter;
    const hw::MicrobatchEfficiency truth(0.85, 12.0);
    for (double ub = 1.0; ub <= 512.0; ub *= 2.0)
        fitter.addSample(ub, truth(ub));
    for (auto _ : state) {
        benchmark::DoNotOptimize(fitter.fit());
    }
}
BENCHMARK(BM_EfficiencyFit);

/**
 * Golden mode: instead of timings (which are machine-dependent),
 * emit the deterministic *outputs* of the code paths the
 * microbenchmarks exercise — evaluator result, mapping-space size,
 * sweep totals, simulator step times, efficiency fit — so the
 * golden harness pins their behaviour too.
 */
int
runGoldenMode(int argc, char **argv)
{
    bench::GoldenOut golden(argc, argv);

    const auto model = caseStudyModel(net::presets::a100Cluster1024());
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;

    const auto one = model.evaluate(
        mapping::makeMapping(8, 1, 1, 1, 2, 64), job);
    golden.add("perf/evaluate/days", one.trainingDays());
    golden.add("perf/evaluate/tflops_per_gpu",
               one.achievedFlopsPerGpu / 1e12);

    mapping::MappingSpace space(net::presets::a100Cluster1024());
    golden.add("perf/mapping_space/count",
               static_cast<double>(space.enumerate().size()));

    explore::Explorer explorer(
        caseStudyModel(net::presets::a100Cluster1024()));
    explorer.setThreads(1);
    const auto sweep = explorer.sweepAll(sweepBatches(), job);
    golden.add("perf/sweep/entries",
               static_cast<double>(sweep.entries.size()));
    golden.add("perf/sweep/skipped",
               static_cast<double>(sweep.skipped));
    const auto best = explore::Explorer::best(sweep);
    golden.add("perf/sweep/best_days",
               best ? best->result.trainingDays() : std::nan(""));

    sim::TrainingSimulator simulator(
        model::presets::minGpt85M(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    golden.add("perf/sim/dp8_step_s",
               simulator.simulateDataParallelStep(8, 32.0).stepTime);
    sim::TrainingSimulator pipe_simulator(
        model::presets::minGptPipeline(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    golden.add(
        "perf/sim/gpipe8_step_s",
        pipe_simulator.simulateGPipeStep(8, 8.0, 32).stepTime);

    hw::EfficiencyFitter fitter;
    const hw::MicrobatchEfficiency truth(0.85, 12.0);
    for (double ub = 1.0; ub <= 512.0; ub *= 2.0)
        fitter.addSample(ub, truth(ub));
    const auto fitted = fitter.fit();
    golden.add("perf/eff_fit/a", fitted.a());
    golden.add("perf/eff_fit/b", fitted.b());

    return golden.finish();
}

/**
 * Parses the value of a sweep-bench count flag: decimal digits only,
 * at least @p min.  Anything else is a usage error naming the flag.
 */
template <typename T>
bool
parseCount(const char *flag, const char *text, T min, T &out)
{
    const char *end = text + std::strlen(text);
    const auto [stop, error] = std::from_chars(text, end, out);
    if (text != end && error == std::errc() && stop == end && out >= min)
        return true;
    std::fprintf(stderr,
                 "perf_microbench: %s needs a whole number >= %llu, "
                 "got '%s'\n",
                 flag, static_cast<unsigned long long>(min), text);
    return false;
}

/**
 * Sweep-throughput bench mode (the record behind the CI perf gate,
 * tools/sweep_ab.py).  Times one un-memoized sweep of the
 * (mapping x batch) grid, after one untimed warm-up sweep of the same
 * grid, then one Explorer::sortByTime of that sweep's rows at the
 * same thread cap, then `amped optimize` on that grid: one untimed
 * and five timed Optimizer::optimizeOver calls with the memory
 * screen and top 3 of bench/optimizer_case_study.  It writes a
 * machine-readable JSON record (BENCH_sweep.json, schema 4: grid
 * size, threads, sweep counters, one `runs` element with seconds /
 * items_per_sec / bytes_per_sec, a `rank` object with the ranked
 * entry count and seconds, and an `optimize` object with the median
 * seconds and the evaluated / pruned-by-bound / pruned-by-memory
 * counters).
 * Seconds are host-relative, so the gate compares two builds run
 * alternately on the same machine rather than a checked-in number.
 *
 *   --sweep-bench-out PATH   write the JSON record (required)
 *   --sweep-batches N        batch-size count, >= 1 (default 2800,
 *                            x360 mappings = 1,008,000 points)
 *   --sweep-threads N        thread cap (0 = AMPED_THREADS)
 *
 * A bad flag or value exits 2 before any sweep runs.
 */
int
runSweepBenchMode(int argc, char **argv)
{
    std::string out_path;
    std::size_t num_batches = 2800;
    unsigned threads = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        const char *value =
            i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--sweep-bench-out" && value) {
            out_path = argv[++i];
        } else if (arg == "--sweep-batches" && value) {
            if (!parseCount("--sweep-batches", argv[++i],
                            std::size_t{1}, num_batches))
                return 2;
        } else if (arg == "--sweep-threads" && value) {
            if (!parseCount("--sweep-threads", argv[++i], 0u, threads))
                return 2;
        } else {
            std::fprintf(stderr,
                         "perf_microbench: unknown sweep-bench "
                         "argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }

    const auto &mappings = sweepGridMappings();
    std::vector<double> batches;
    batches.reserve(num_batches);
    for (std::size_t i = 0; i < num_batches; ++i)
        batches.push_back(2048.0 + 8.0 * static_cast<double>(i));
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;

    explore::Explorer explorer(
        caseStudyModel(net::presets::a100Cluster1024()));
    explorer.setThreads(threads);

    const std::size_t points = mappings.size() * batches.size();
    const double bytes_per_point =
        static_cast<double>(sizeof(core::EvaluationResult));
    // One untimed sweep first: a process's first sweep also pays
    // start-up costs (the pool's threads, a fresh heap) and reads
    // slower than the sweeps after it.
    (void)explorer.sweep(mappings, batches, job);
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    explore::SweepResult sweep = explorer.sweep(mappings, batches, job);
    const double seconds =
        std::chrono::duration<double>(clock::now() - t0).count();

    obs::Json run = obs::Json::object();
    run.set("seconds", seconds);
    run.set("items_per_sec", static_cast<double>(points) / seconds);
    run.set("bytes_per_sec",
            static_cast<double>(points) * bytes_per_point / seconds);
    obs::Json grid = obs::Json::object();
    grid.set("mappings", mappings.size());
    grid.set("batch_sizes", batches.size());
    grid.set("points", points);
    obs::Json thread_info = obs::Json::object();
    thread_info.set("requested",
                    threads != 0
                        ? threads
                        : ThreadPool::defaultThreadCount());
    thread_info.set("pool", ThreadPool::shared().threadCount());
    obs::Json counters = obs::Json::object();
    counters.set("entries", sweep.entries.size());
    counters.set("skipped", sweep.skipped);
    counters.set("memory_skipped", sweep.memorySkipped);
    counters.set("failed", sweep.failed);

    const auto rank_start = clock::now();
    explore::Explorer::sortByTime(sweep.entries, threads);
    const double rank_seconds =
        std::chrono::duration<double>(clock::now() - rank_start).count();
    obs::Json rank = obs::Json::object();
    rank.set("entries", sweep.entries.size());
    rank.set("seconds", rank_seconds);
    sweep = explore::SweepResult(); // Free the rows before optimizing.

    explore::Optimizer optimizer(
        caseStudyModel(net::presets::a100Cluster1024()));
    optimizer.setThreads(threads);
    optimizer.setMemoryModel(core::MemoryModel(
        model::OpCounter(model::presets::megatron145B()),
        hw::presets::a100()));
    explore::OptimizerRequest request;
    request.batchSizes = batches;
    request.jobTemplate = job;
    request.topK = 3;
    (void)optimizer.optimizeOver(mappings, request);
    constexpr std::size_t kTimedOptimizeCalls = 5;
    std::vector<double> optimize_seconds;
    explore::OptimizerCounters found;
    for (std::size_t call = 0; call < kTimedOptimizeCalls; ++call) {
        const auto start = clock::now();
        found = optimizer.optimizeOver(mappings, request).counters;
        optimize_seconds.push_back(
            std::chrono::duration<double>(clock::now() - start)
                .count());
    }
    std::sort(optimize_seconds.begin(), optimize_seconds.end());
    const double optimize_median =
        optimize_seconds[kTimedOptimizeCalls / 2];
    obs::Json optimize_counters = obs::Json::object();
    optimize_counters.set("evaluated", found.evaluated);
    optimize_counters.set("pruned_by_bound", found.prunedByBound);
    optimize_counters.set("pruned_by_memory", found.prunedByMemory);
    obs::Json optimize = obs::Json::object();
    optimize.set("top_k", request.topK);
    optimize.set("timed_calls", kTimedOptimizeCalls);
    optimize.set("seconds", optimize_median);
    optimize.set("counters", std::move(optimize_counters));

    obs::Json root = obs::Json::object();
    root.set("schema_version", 4);
    root.set("kind", "amped.sweep_bench");
    root.set("grid", std::move(grid));
    root.set("threads", std::move(thread_info));
    root.set("bytes_per_point", bytes_per_point);
    root.set("counters", std::move(counters));
    obs::Json runs = obs::Json::array();
    runs.push(std::move(run));
    root.set("runs", std::move(runs));
    root.set("rank", std::move(rank));
    root.set("optimize", std::move(optimize));

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr,
                     "perf_microbench: cannot write '%s'\n",
                     out_path.c_str());
        return 2;
    }
    out << root.dump(2) << "\n";
    out.close();
    std::fprintf(stderr,
                 "sweep: %zu points in %.3f s (%.0f/s); rank: %.3f s; "
                 "optimize: median %.3f s of %zu, %zu evaluated -> %s\n",
                 points, seconds, static_cast<double>(points) / seconds,
                 rank_seconds, optimize_median, kTimedOptimizeCalls,
                 found.evaluated, out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--golden-out")
            return runGoldenMode(argc, argv);
        if (std::string_view(argv[i]) == "--sweep-bench-out")
            return runSweepBenchMode(argc, argv);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

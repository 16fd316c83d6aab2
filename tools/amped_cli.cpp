/**
 * @file
 * `amped` — the command-line front end to the model.
 *
 * Subcommands:
 *   evaluate   predict training time/throughput for one mapping
 *   explore    rank every valid mapping of a cluster
 *   optimize   branch-and-bound search for the fastest mappings
 *   breakdown  per-phase time split for one mapping (Fig. 3 view)
 *   memory     per-device memory footprint and ZeRO comparison
 *   scale      strong-scaling sweep: best mapping per node count
 *   resilience expected time-to-train under failures with
 *              checkpoint/restart (Daly-optimal interval by default)
 *   report     full markdown report (prediction+memory+energy)
 *   trace      simulate one training step from a key = value config
 *              file and export a Chrome-trace (chrome://tracing /
 *              Perfetto) JSON and/or a structured JSON run report
 *   serve      long-lived JSON evaluation service (stdio pipes or a
 *              loopback TCP socket; see serve/protocol.hpp)
 *   presets    list the built-in model/accelerator/interconnect names
 *
 * The request options (model, cluster, job, mapping, top, ...), their
 * defaults, help texts and ranges come from the field table in
 * serve/request.cpp, which `amped serve` reads too.  Custom
 * hardware/models load from key = value files via --model-file /
 * --accel-file / --system-file (see explore/config_io.hpp for the
 * schemas).
 *
 * Examples:
 *   amped evaluate --model gpt3 --batch 1536 --nodes 128 \
 *       --per-node 8 --tp-intra 8 --pp-inter 16 --dp-inter 8
 *   amped explore --model 145b --batch 8192 --top 10 --memory-check
 *   amped memory --model 1t --batch 3072 --tp-intra 8 --pp-inter 64 \
 *       --dp-inter 6 --zero 2
 */

#include <atomic>
#include <cmath>
#include <csignal>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "common/thread_pool.hpp"
#include "core/amped_model.hpp"
#include "core/memory_model.hpp"
#include "core/resilience.hpp"
#include "explore/explorer.hpp"
#include "explore/optimizer.hpp"
#include "explore/report.hpp"
#include "explore/config_io.hpp"
#include "explore/registry.hpp"
#include "net/system_config.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/run_report.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "sim/training_sim.hpp"
#include "validate/calibrations.hpp"

namespace {

using namespace amped;

// ---------------------------------------------------------------
// Cooperative shutdown: main() installs SIGINT/SIGTERM handlers
// that trip the process-wide root token.  Long-running subcommands
// derive a child token (optionally deadline-bounded via
// --deadline-ms), so Ctrl-C stops the sweep at the next block/wave
// checkpoint and the partial results already computed are still
// flushed as valid CSV / tables before exit.

std::atomic<int> g_stop_signal{0};

/** Root token tripped by the signal handlers; made in main(). */
CancelToken g_root_token;

extern "C" void
handleStopSignal(int signo)
{
    // Async-signal-safe: an atomic store plus CancelToken::cancel(),
    // which is documented to perform only lock-free atomic stores
    // and a monotonic clock read.
    g_stop_signal.store(signo, std::memory_order_relaxed);
    g_root_token.cancel();
}

void
installSignalHandlers()
{
    g_root_token = CancelToken::make();
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
}

/** Adds the wall-clock budget option shared by long-running runs. */
void
addDeadlineOption(ArgParser &parser)
{
    parser.addOption("deadline-ms",
                     "wall-clock budget in milliseconds; the run "
                     "stops at the next checkpoint once it expires "
                     "(0 = no deadline)", "0");
}

/** Child of the root token carrying the --deadline-ms budget. */
CancelToken
tokenFrom(const ArgParser &parser)
{
    const double ms = parser.getDouble("deadline-ms");
    require(ms >= 0.0, "--deadline-ms must be >= 0, got ", ms);
    if (ms == 0.0)
        return g_root_token.child();
    return g_root_token.child(Deadline::after(ms / 1000.0));
}

/**
 * Exit code for a run that stopped early: 130/143 after a SIGINT/
 * SIGTERM (the shell convention 128 + signal), 124 when a deadline
 * expired (the `timeout` utility's convention).
 */
int
stopExitCode(RunStatus status)
{
    const int signo = g_stop_signal.load(std::memory_order_relaxed);
    if (signo == SIGINT)
        return 130;
    if (signo == SIGTERM)
        return 143;
    if (status == RunStatus::DeadlineExceeded)
        return 124;
    return 130;
}

/** Stderr notice that partial results follow. */
void
reportStop(const char *what, RunStatus status, std::size_t visited,
           std::size_t unvisited)
{
    std::cerr << what << " stopped early (" << toString(status)
              << "): " << visited << " of " << (visited + unvisited)
              << " grid points visited; partial results below are "
                 "deterministic and valid\n";
}

/**
 * A subcommand's options: its request fields from the shared table
 * (serve/request.hpp) plus the CLI-only file and thread options.  A
 * subcommand adds its own options to `parser`, then calls parse().
 */
struct RequestFlags
{
    explicit RequestFlags(serve::FieldSet request_fields)
        : fields(request_fields)
    {
        serve::addFieldOptions(parser, fields);
        parser.addOption("model-file",
                         "model config file (overrides --model)", "");
        parser.addOption("accel-file",
                         "accelerator config file (overrides --accel)",
                         "");
        parser.addOption("system-file",
                         "system config file (overrides the cluster "
                         "options)", "");
        parser.addOption("threads",
                         "sweep worker threads (0 = AMPED_THREADS env "
                         "or all cores, 1 = serial)", "0");
    }

    /** Parses @p args; the returned reader refers to `params`. */
    serve::Params parse(const std::vector<std::string> &args)
    {
        parser.parse(args);
        params = serve::paramsFromFlags(parser, fields);
        return serve::Params(params, fields, "--");
    }

    /** The configs the three file options name. */
    serve::Overrides files() const
    {
        serve::Overrides files;
        if (!parser.get("model-file").empty())
            files.model = explore::modelFromFile(parser.get("model-file"));
        if (!parser.get("accel-file").empty())
            files.accelerator =
                explore::acceleratorFromFile(parser.get("accel-file"));
        if (!parser.get("system-file").empty())
            files.system =
                explore::systemFromFile(parser.get("system-file"));
        return files;
    }

    ArgParser parser;
    serve::FieldSet fields;
    obs::Json params;
};

int
cmdEvaluate(const std::vector<std::string> &args, bool breakdown)
{
    RequestFlags flags(serve::kOneMappingFields);
    const auto params = flags.parse(args);

    const auto model = serve::modelFrom(params, flags.files());
    const auto job = serve::jobFrom(params);
    const auto mapping = serve::mappingFrom(params);
    const auto result = model.evaluate(mapping, job);

    std::cout << "mapping:        " << mapping.toString() << "\n"
              << "microbatch:     " << result.microbatchSize
              << " (eff "
              << units::formatFixed(result.efficiency, 3) << ")\n"
              << "time per batch: "
              << units::formatDuration(result.timePerBatch) << "\n"
              << "training time:  "
              << units::formatDuration(result.totalTime) << "\n"
              << "throughput:     "
              << units::formatFlops(result.achievedFlopsPerGpu)
              << " per GPU, "
              << units::formatCount(result.tokensPerSecond)
              << " tokens/s\n";
    if (breakdown) {
        std::cout << "\n" << explore::breakdownTable(result);
    }
    return 0;
}

int
cmdExplore(const std::vector<std::string> &args)
{
    RequestFlags flags(serve::kExploreFields);
    ArgParser &parser = flags.parser;
    addDeadlineOption(parser);
    parser.addOption("max-grid-points",
                     "reject sweeps whose mapping x batch grid "
                     "exceeds this many points (0 = unlimited)", "0");
    parser.addFlag("csv", "emit CSV instead of an aligned table");
    const auto params = flags.parse(args);

    const auto ranked = serve::runSweep(
        params, flags.files(),
        static_cast<unsigned>(parser.getInt("threads")),
        tokenFrom(parser),
        static_cast<std::size_t>(parser.getInt("max-grid-points")));
    const auto &sweep = ranked.sweep;
    if (sweep.status != RunStatus::Completed)
        reportStop("explore", sweep.status, sweep.visitedPoints,
                   sweep.cancelledUnvisited);

    std::cerr << sweep.entries.size() << " mappings shown; skipped "
              << sweep.skipped << " infeasible";
    if (params.flag(serve::FieldId::sweepMemoryCheck))
        std::cerr << ", " << sweep.memorySkipped << " over memory";
    std::cerr << "\n";
    if (parser.getFlag("csv"))
        std::cout << explore::sweepCsv(sweep.entries);
    else
        std::cout << explore::sweepTable(sweep.entries);
    if (sweep.status != RunStatus::Completed)
        return stopExitCode(sweep.status);
    return 0;
}

int
cmdOptimize(const std::vector<std::string> &args)
{
    RequestFlags flags(serve::kOptimizeFields);
    ArgParser &parser = flags.parser;
    addDeadlineOption(parser);
    parser.addOption("max-grid-points",
                     "reject searches whose mapping x batch grid "
                     "exceeds this many points (0 = unlimited)", "0");
    parser.addFlag("csv", "emit CSV instead of an aligned table");
    const auto params = flags.parse(args);

    const auto result = serve::runOptimize(
        params, flags.files(),
        static_cast<unsigned>(parser.getInt("threads")),
        tokenFrom(parser),
        static_cast<std::size_t>(parser.getInt("max-grid-points")));

    const auto &c = result.counters;
    if (result.status != RunStatus::Completed)
        reportStop("optimize", result.status,
                   c.points - c.cancelledUnvisited,
                   c.cancelledUnvisited);
    std::cerr << result.topK.size() << " strategies found; "
              << c.points << " points searched: " << c.evaluated
              << " evaluated, " << c.prunedByBound
              << " pruned by bound, " << c.prunedByMemory
              << " pruned by memory, " << c.skippedInfeasible
              << " infeasible\n";
    if (parser.getFlag("csv"))
        std::cout << explore::sweepCsv(result.topK);
    else
        std::cout << explore::sweepTable(result.topK);
    if (result.status != RunStatus::Completed)
        return stopExitCode(result.status);
    return 0;
}

int
cmdMemory(const std::vector<std::string> &args)
{
    RequestFlags flags(serve::kOneMappingFields);
    ArgParser &parser = flags.parser;
    parser.addOption("zero", "ZeRO stage (0-3)", "0");
    const auto params = flags.parse(args);

    const auto model = serve::modelFrom(params, flags.files());
    const auto &accel = model.accelerator();
    const auto m = serve::mappingFrom(params);
    const auto job = serve::jobFrom(params);
    const double ub = job.microbatching.microbatchSize(
        job.batchSize, m);

    core::MemoryOptions options;
    const std::int64_t stage = parser.getInt("zero");
    require(stage >= 0 && stage <= 3, "--zero must be 0..3, got ",
            stage);
    options.zeroStage = static_cast<core::ZeroStage>(stage);
    core::MemoryModel mm(model.opCounter(), accel, options);
    const auto fp = mm.footprint(m, job.batchSize, ub);

    auto gb = [](double bytes) {
        return units::formatFixed(bytes / 1e9, 2) + " GB";
    };
    std::cout << "mapping:     " << m.toString() << " ("
              << core::zeroStageName(options.zeroStage) << ")\n"
              << "parameters:  " << gb(fp.parameterBytes) << "\n"
              << "gradients:   " << gb(fp.gradientBytes) << "\n"
              << "optimizer:   " << gb(fp.optimizerBytes) << "\n"
              << "activations: " << gb(fp.activationBytes) << "\n"
              << "workspace:   " << gb(fp.workspaceBytes) << "\n"
              << "total:       " << gb(fp.totalBytes()) << " of "
              << gb(accel.memoryBytes) << " -> "
              << (mm.fits(m, job.batchSize, ub) ? "fits"
                                                : "DOES NOT FIT")
              << "\n";
    return 0;
}

int
cmdReport(const std::vector<std::string> &args)
{
    RequestFlags flags(serve::kOneMappingFields);
    ArgParser &parser = flags.parser;
    parser.addOption("zero", "ZeRO stage (0-3)", "0");
    parser.addOption("tdp", "accelerator TDP in watts", "400");
    parser.addOption("idle-fraction",
                     "idle power as a fraction of TDP", "0.3");
    const auto params = flags.parse(args);

    explore::ReportOptions options;
    const std::int64_t stage = parser.getInt("zero");
    require(stage >= 0 && stage <= 3, "--zero must be 0..3, got ",
            stage);
    options.memory.zeroStage = static_cast<core::ZeroStage>(stage);
    options.power.tdpWatts = Watts{parser.getDouble("tdp")};
    options.power.idleFraction = parser.getDouble("idle-fraction");

    std::cout << explore::generateReport(
        serve::modelFrom(params, flags.files()),
        serve::mappingFrom(params), serve::jobFrom(params), options);
    return 0;
}

int
cmdScale(const std::vector<std::string> &args)
{
    RequestFlags flags(serve::kCommonFields);
    ArgParser &parser = flags.parser;
    parser.addOption("max-nodes", "largest node count to sweep",
                     "256");
    const auto params = flags.parse(args);

    std::cout << "strong scaling: best mapping per node count, "
              << parser.get("model") << ", batch "
              << parser.get("batch") << "\n";
    TextTable table({"nodes", "accelerators", "best mapping", "days",
                     "speedup", "efficiency"});
    double base_time = 0.0;
    std::int64_t base_nodes = 0;
    for (std::int64_t nodes = 1;
         nodes <= parser.getInt("max-nodes"); nodes *= 2) {
        serve::Overrides given = flags.files();
        net::SystemConfig sys = serve::systemFrom(params, given);
        sys.numNodes = nodes;
        given.system = sys;
        explore::Explorer explorer(serve::modelFrom(params, given));
        explorer.setThreads(
            static_cast<unsigned>(parser.getInt("threads")));
        const auto job = serve::jobFrom(params);
        auto sweep = explorer.sweepAll({job.batchSize}, job);
        const auto best = explore::Explorer::best(sweep);
        if (!best) {
            table.addRow({std::to_string(nodes),
                          std::to_string(sys.totalAccelerators()),
                          "(none feasible)", "-", "-", "-"});
            continue;
        }
        if (base_time == 0.0) {
            base_time = best->result.totalTime;
            base_nodes = nodes;
        }
        const double speedup = base_time / best->result.totalTime;
        const double ideal =
            static_cast<double>(nodes) /
            static_cast<double>(base_nodes);
        table.addRow(
            {std::to_string(nodes),
             std::to_string(sys.totalAccelerators()),
             best->mapping.toString(),
             units::formatFixed(best->result.totalTime / 86400.0, 1),
             units::formatFixed(speedup, 2) + "x",
             units::formatFixed(100.0 * speedup / ideal, 1) + " %"});
    }
    table.print(std::cout);
    return 0;
}

int
cmdResilience(const std::vector<std::string> &args)
{
    RequestFlags flags(serve::kOneMappingFields);
    ArgParser &parser = flags.parser;
    parser.addOption("device-mtbf-years",
                     "per-device mean time between failures in years "
                     "(0 = failure-free)", "5");
    parser.addOption("restart-minutes",
                     "restart cost after a failure (detect, reload, "
                     "rewind)", "10");
    parser.addOption("interval-minutes",
                     "checkpoint interval (0 = Daly optimal)", "0");
    parser.addOption("storage-gbits",
                     "per-device checkpoint write bandwidth", "200");
    parser.addOption("storage-latency-us",
                     "checkpoint storage latency", "100");
    parser.addOption("mc-replications",
                     "Monte-Carlo cross-check replications (0 = "
                     "analytic only)", "0");
    parser.addOption("mc-seed", "Monte-Carlo base seed", "1");
    addDeadlineOption(parser);
    const auto params = flags.parse(args);

    const auto model = serve::modelFrom(params, flags.files());
    const auto m = serve::mappingFrom(params);
    const auto job = serve::jobFrom(params);
    const auto result = model.evaluate(m, job);

    const core::MemoryModel memory(model.opCounter(),
                                   model.accelerator());
    const auto footprint =
        memory.footprint(m, job.batchSize, result.microbatchSize);
    const double ckpt_bytes = core::checkpointBytes(footprint);
    const net::LinkConfig storage{
        "storage",
        Seconds{parser.getDouble("storage-latency-us") * 1e-6},
        units::gigabitsPerSecondBw(
            parser.getDouble("storage-gbits"))};

    core::ResilienceConfig config;
    const double mtbf_years = parser.getDouble("device-mtbf-years");
    require(mtbf_years >= 0.0,
            "--device-mtbf-years must be >= 0, got ", mtbf_years);
    const double per_device_rate =
        mtbf_years > 0.0 ? 1.0 / (mtbf_years * 365.25 * 86400.0)
                         : 0.0;
    config.mtbfSeconds = core::clusterMtbfSeconds(
        per_device_rate, model.system().totalAccelerators());
    config.checkpointWriteSeconds =
        core::checkpointWriteSeconds(ckpt_bytes, storage);
    config.restartSeconds =
        Seconds{parser.getDouble("restart-minutes") * 60.0};
    config.checkpointIntervalSeconds =
        Seconds{parser.getDouble("interval-minutes") * 60.0};
    if (config.checkpointIntervalSeconds.value() == 0.0
        && !std::isfinite(config.mtbfSeconds.value())) {
        // Failure-free cluster: Daly says "never checkpoint".
        config.checkpointIntervalSeconds =
            Seconds{std::numeric_limits<double>::infinity()};
    }

    const auto estimate =
        core::estimateTimeToTrain(Seconds{result.totalTime}, config);
    const auto days = [](double seconds) {
        return units::formatFixed(seconds / 86400.0, 2) + " days";
    };
    std::cout << "mapping:            " << m.toString() << "\n"
              << "checkpoint size:    "
              << units::formatFixed(ckpt_bytes / 1e9, 2)
              << " GB/device (params + optimizer)\n"
              << "checkpoint write:   "
              << units::formatDuration(
                     config.checkpointWriteSeconds.value())
              << "\n"
              << "cluster MTBF:       "
              << (std::isfinite(config.mtbfSeconds.value())
                      ? units::formatDuration(
                            config.mtbfSeconds.value())
                      : std::string("infinite"))
              << "\n"
              << "checkpoint every:   "
              << (std::isfinite(estimate.intervalSeconds.value())
                      ? units::formatDuration(
                            estimate.intervalSeconds.value())
                      : std::string("never"))
              << " (" << estimate.segmentCount << " segments)\n"
              << "failure-free solve: " << days(estimate.solveSeconds.value())
              << "\n"
              << "expected failures:  "
              << units::formatFixed(estimate.expectedFailures, 1)
              << "\n"
              << "expected training:  "
              << days(estimate.expectedSeconds.value()) << " (+"
              << units::formatFixed(
                     100.0 * estimate.overheadFraction(), 2)
              << " % over the failure-free solve)\n";

    const auto replications =
        static_cast<std::size_t>(parser.getInt("mc-replications"));
    if (replications > 0) {
        const auto stats = core::monteCarloTimeToTrain(
            Seconds{result.totalTime}, config, replications,
            static_cast<std::uint64_t>(parser.getInt("mc-seed")),
            ThreadPool::shared(),
            static_cast<std::size_t>(parser.getInt("threads")),
            tokenFrom(parser));
        if (stats.status != RunStatus::Completed) {
            std::cerr << "resilience Monte-Carlo stopped early ("
                      << toString(stats.status) << "): statistics "
                      << "cover " << stats.replications << " of "
                      << replications << " replications\n";
        }
        std::cout << "Monte-Carlo check:  "
                  << days(stats.meanSeconds.value()) << " +/- "
                  << days(stats.standardError.value()) << " ("
                  << stats.replications << " replications)\n";
        if (stats.status != RunStatus::Completed)
            return stopExitCode(stats.status);
    }
    return 0;
}

/**
 * `amped trace`: one simulated training step, described by a
 * key = value config file, exported as a Chrome-trace JSON (open in
 * chrome://tracing or https://ui.perfetto.dev) and/or a structured
 * run report that also carries the analytical AMPeD prediction for
 * the same configuration.
 *
 * Config keys (see examples/configs/):
 *   model     = model preset (default mingpt)
 *   accel     = accelerator preset (default v100)
 *   link      = interconnect preset for the device link
 *               (default nvlink-v100)
 *   schedule  = dp | gpipe | tp        (default dp)
 *   devices   = DP replicas / pipeline stages / TP shards (default 8)
 *   per-device-batch = per-replica batch for dp/tp (default 32)
 *   microbatch       = GPipe microbatch size (default 8)
 *   num-microbatches = GPipe microbatch count (default devices)
 *   eff-a, eff-b, eff-floor = efficiency curve (default 0.9/30/0.25)
 *   backward-multiplier     = backward/forward ratio (default 3)
 */
int
cmdTrace(const std::vector<std::string> &args)
{
    ArgParser parser;
    parser.addOption("config", "key = value run description file",
                     "");
    parser.addOption("trace-out",
                     "Chrome-trace JSON output path (optional)", "");
    parser.addOption("report-out",
                     "run-report JSON output path (optional)", "");
    parser.parse(args);
    require(!parser.get("config").empty(),
            "trace: --config <file> is required");

    const auto config =
        KeyValueConfig::fromFile(parser.get("config"));
    config.requireOnly({"model", "accel", "link", "schedule",
                        "devices", "per-device-batch", "microbatch",
                        "num-microbatches", "eff-a", "eff-b",
                        "eff-floor", "backward-multiplier"});

    const std::string model_name =
        config.getString("model", "mingpt");
    const std::string accel_name = config.getString("accel", "v100");
    const std::string link_name =
        config.getString("link", "nvlink-v100");
    const std::string schedule =
        config.getString("schedule", "dp");
    const std::int64_t devices = config.getInt("devices", 8);
    require(devices >= 1, "trace: devices must be >= 1, got ",
            devices);

    const auto model_cfg = explore::modelByName(model_name);
    const auto accel = explore::acceleratorByName(accel_name);
    const auto link = explore::interconnectByName(link_name);
    const double eff_a = config.getDouble("eff-a", 0.9);
    const hw::MicrobatchEfficiency eff(
        eff_a, config.getDouble("eff-b", 30.0),
        std::min(config.getDouble("eff-floor", 0.25), eff_a));

    // Simulated step.
    sim::TrainingSimulator simulator(model_cfg, accel, eff, link);
    simulator.setBackwardMultiplier(
        config.getDouble("backward-multiplier", 3.0));

    sim::SimOutcome outcome;
    mapping::ParallelismConfig mapping;
    double batch = 0.0;
    core::TrainingJob job;
    if (schedule == "dp") {
        const double per_device =
            config.getDouble("per-device-batch", 32.0);
        outcome =
            simulator.simulateDataParallelStep(devices, per_device);
        mapping = mapping::makeMapping(1, 1, devices, 1, 1, 1);
        batch = per_device * static_cast<double>(devices);
    } else if (schedule == "gpipe") {
        const double microbatch =
            config.getDouble("microbatch", 8.0);
        const std::int64_t num_microbatches =
            config.getInt("num-microbatches", devices);
        outcome = simulator.simulateGPipeStep(devices, microbatch,
                                              num_microbatches);
        mapping = mapping::makeMapping(1, devices, 1, 1, 1, 1);
        batch =
            microbatch * static_cast<double>(num_microbatches);
        job.microbatching.numMicrobatchesOverride =
            static_cast<double>(num_microbatches);
    } else if (schedule == "tp") {
        const double tp_batch =
            config.getDouble("per-device-batch", 32.0);
        outcome =
            simulator.simulateTensorParallelStep(devices, tp_batch);
        mapping = mapping::makeMapping(devices, 1, 1, 1, 1, 1);
        batch = tp_batch;
    } else {
        fatal("trace: unknown schedule '", schedule,
              "' (supported: dp, gpipe, tp)");
    }

    // Matching analytical prediction: one node of `devices`
    // accelerators on the same link, one batch.
    net::SystemConfig system;
    system.name = "1x" + std::to_string(devices) + " " + accel_name;
    system.numNodes = 1;
    system.acceleratorsPerNode = devices;
    system.intraLink = link;
    system.interLink = explore::interconnectByName("hdr");
    system.nicsPerNode = devices;
    core::AmpedModel amped_model(
        model_cfg, accel, eff, system,
        validate::calibrations::nvswitchOptions(devices));
    job.batchSize = batch;
    job.numBatchesOverride = 1.0;
    const auto evaluation = amped_model.evaluate(mapping, job);

    obs::Json config_echo = obs::Json::object();
    config_echo.set("config_file", parser.get("config"));
    config_echo.set("model", model_name);
    config_echo.set("accelerator", accel_name);
    config_echo.set("link", link_name);
    config_echo.set("schedule", schedule);
    config_echo.set("devices", devices);
    config_echo.set("batch", batch);

    if (!parser.get("trace-out").empty()) {
        obs::ChromeTraceBuilder trace;
        trace.addRun(*outcome.graph, outcome.raw, schedule,
                     outcome.failure.events);
        trace.writeFile(parser.get("trace-out"));
        std::cout << "trace:  " << parser.get("trace-out") << " ("
                  << trace.eventCount() << " events)\n";
    }
    if (!parser.get("report-out").empty()) {
        obs::RunReportBuilder report;
        report.setConfig(std::move(config_echo))
            .setAnalytical(evaluation)
            .addSimulation(schedule, outcome)
            .setMetrics(obs::MetricsRegistry::global());
        report.writeFile(parser.get("report-out"));
        std::cout << "report: " << parser.get("report-out") << "\n";
    }

    std::cout << "schedule:        " << schedule << " x " << devices
              << " (" << model_name << " on " << accel_name
              << ")\n"
              << "simulated step:  "
              << units::formatDuration(outcome.stepTime) << "\n"
              << "analytic batch:  "
              << units::formatDuration(evaluation.timePerBatch)
              << "\n";
    return 0;
}

/**
 * `amped serve` — the long-lived evaluation service.  --stdio serves
 * newline-delimited requests on stdin/stdout (no sockets; what the
 * tests, the load generator, and CI drive); the default binds a
 * loopback TCP socket.  SIGINT/SIGTERM trip the root token: an
 * in-flight sweep stops at its next checkpoint, the partial response
 * is still flushed, and the process exits 130/143.
 */
int
cmdServe(const std::vector<std::string> &args)
{
    ArgParser parser;
    parser.addOption("config",
                     "server config file (see examples/configs/"
                     "serve_default.cfg)", "");
    parser.addOption("port",
                     "loopback TCP port (0 = ephemeral)", "7787");
    parser.addFlag("stdio",
                   "serve stdin/stdout pipes instead of TCP");
    parser.addOption("threads",
                     "sweep worker threads override (-1 = config "
                     "value)", "-1");
    parser.parse(args);

    serve::ServerOptions options;
    if (!parser.get("config").empty()) {
        options = serve::optionsFromConfig(
            KeyValueConfig::fromFile(parser.get("config")));
    }
    const std::int64_t threads = parser.getInt("threads");
    if (threads >= 0)
        options.threads = static_cast<unsigned>(threads);

    serve::Server server(options);
    server.setCancelToken(g_root_token.child());

    RunStatus status;
    if (parser.getFlag("stdio")) {
        status = server.serveStream(std::cin, std::cout);
    } else {
        const std::int64_t port = parser.getInt("port");
        require(port >= 0 && port <= 65535,
                "--port must be in [0, 65535], got ", port);
        status = server.serveTcp(static_cast<std::uint16_t>(port));
    }
    if (status != RunStatus::Completed) {
        std::cerr << "serve stopped (" << toString(status) << ")\n";
        return stopExitCode(status);
    }
    return 0;
}

int
cmdPresets()
{
    auto print = [](const char *label,
                    const std::vector<std::string> &names) {
        std::cout << label << ":";
        for (const auto &name : names)
            std::cout << ' ' << name;
        std::cout << '\n';
    };
    print("models", explore::modelNames());
    print("accelerators", explore::acceleratorNames());
    print("interconnects", explore::interconnectNames());
    return 0;
}

int
usage()
{
    std::cout
        << "usage: amped <evaluate|breakdown|explore|optimize|memory|"
           "scale|resilience|report|trace|serve|presets> [options]\n"
           "run 'amped <subcommand> --help' style options are shown "
           "on any parse error.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    installSignalHandlers();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "evaluate")
            return cmdEvaluate(args, /*breakdown=*/false);
        if (command == "breakdown")
            return cmdEvaluate(args, /*breakdown=*/true);
        if (command == "explore")
            return cmdExplore(args);
        if (command == "optimize")
            return cmdOptimize(args);
        if (command == "memory")
            return cmdMemory(args);
        if (command == "scale")
            return cmdScale(args);
        if (command == "resilience")
            return cmdResilience(args);
        if (command == "report")
            return cmdReport(args);
        if (command == "trace")
            return cmdTrace(args);
        if (command == "serve")
            return cmdServe(args);
        if (command == "presets")
            return cmdPresets();
        std::cerr << "unknown subcommand '" << command << "'\n";
        return usage();
    } catch (const amped::UserError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
}

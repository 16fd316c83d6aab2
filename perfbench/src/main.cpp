/**
 * @file
 * The repository benchmark: three closed-loop workloads, each driven
 * by one caller in one process, on a pool pinned to kPoolThreads.
 *
 *   sweep_case1     Case Study I: Megatron-145B on 1024 A100s, the
 *                   360 enumerated mappings x 2800 batch sizes
 *                   (1,008,000 points), no memory screen.  One op =
 *                   Explorer::sweep, Explorer::sortByTime, top 10.
 *   optimize_case1  Optimizer::optimizeOver on the same grid with
 *                   the A100 memory screen, top 3.
 *   serve_mix       Seeded rounds of request lines through
 *                   Server::handleLine (see traffic.hpp).
 *
 * Timed ops call only Explorer, Optimizer and Server.  The first op
 * (or round) of every loop runs untimed, because it pays one-off
 * costs that later ops do not.  Every timed op's answer is checked
 * outside its timer, and a failed check counts as a failed op.
 *
 * Every run prints every end-to-end metric, so the serve classes are
 * measured on the two case workloads too: after each case op they
 * replay one untimed warm-up round and kProbeRounds timed rounds
 * (probe rounds) of the same seeded serve traffic through their own
 * Server.  A set-up repetition follows every timed serve round, so
 * that set-up time, like the op latencies, samples the whole run
 * rather than its first seconds.
 * The case workloads read their peak resident memory after op 0,
 * before the first probe round, so it counts set-up and a case op
 * and not the serve state the probe rounds leave.
 *
 * The host runs other tenants' work beside this process, and in
 * spells of a tenth of a second to minutes it runs the benchmark's
 * threads up to about 1.7 times slower (thread CPU time grows as
 * much as wall time: the threads run, slower).  Every timed serve
 * request line, and every timed set-up repetition, therefore sits
 * between two readings of a host gauge, a fixed reference loop that
 * calls none of the program's code.  The serve-class latencies, the
 * serve_mix round metrics and setup_s count only the samples whose
 * gauge readings were within kGaugeSlack of the run's usual
 * (2nd-percentile) reading: the samples taken at the host's usual
 * speed.  A serve_mix round counts when half its lines do.  The case
 * ops, which run for a second or more across such spells, are all
 * counted.
 *
 * With --trace 1 the run instead prints the per-layer metrics.  Ops
 * alternate untraced and traced (ABAB...).  A traced op records
 * spans around the public calls of each layer, which for the case
 * workloads means the calls Explorer and Optimizer make themselves
 * (SweepKernel construction, SweepKernel::sweepGrid), and for serve
 * lines means timing parseBody/requestFromJson, Json::parse/dump,
 * SweepCacheLru::get/put and AmpedModel::evaluate on the run's own
 * requests and responses after handleLine returns.  The spans go out
 * as Chrome-trace JSON next to a per-layer summary.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "case_study_util.hpp"
#include "common/thread_pool.hpp"
#include "core/amped_model.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"
#include "explore/optimizer.hpp"
#include "explore/registry.hpp"
#include "explore/sweep_kernel.hpp"
#include "hw/presets.hpp"
#include "mapping/parallelism.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/sweep_cache.hpp"
#include "stats.hpp"
#include "testing/golden.hpp"
#include "trace.hpp"
#include "traffic.hpp"
#include "validate/calibrations.hpp"

namespace {

using namespace amped;
using perfbench::ServeClass;
using perfbench::ServeLine;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

/** Shared-pool size, fixed so runs on any host use the same count. */
constexpr unsigned kPoolThreads = 4;

/** Timed probe rounds a case workload replays after each case op,
 *  after one untimed warm-up round: with about 20 ops a run, 4 give
 *  some 640 evals, enough for a p90 from the ones served at the
 *  host's usual speed even when that is a sixth of the run. */
constexpr std::size_t kProbeRounds = 4;

/** A sample counts when the host gauge readings around it are at
 *  most this factor times the run's usual (2nd-percentile) reading.
 *  Outside the host's slow spells most readings lie within about 20 %
 *  above that; inside them, about 40 to 80 % above it. */
constexpr double kGaugeSlack = 1.2;

/** Case Study I batch axis: 2048 + 8 i for i < 2800. */
constexpr std::size_t kCaseBatches = 2800;

/** Grid size the case workloads must cover. */
constexpr std::size_t kCasePoints = 360 * kCaseBatches;

/** A run never measures longer than this, whatever --seconds asks
 *  for and however slow the host, so it ends well inside 180 s. */
constexpr double kMaxLoopSeconds = 120.0;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::string golden = "tests/golden/optimizer_case_study.golden";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--out-dir")
            args.outDir = value;
        else if (flag == "--golden")
            args.golden = value;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (args.workload != "sweep_case1" &&
        args.workload != "optimize_case1" &&
        args.workload != "serve_mix")
        throw std::runtime_error("unknown workload '" + args.workload +
                                 "'");
    if (!(args.seconds > 0.0))
        throw std::runtime_error("--seconds must be > 0");
    return args;
}

struct Usage
{
    double cpuSeconds = 0.0;
    double minorFaults = 0.0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime) + secs(ru.ru_stime),
            static_cast<double>(ru.ru_minflt)};
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Keeps a value alive so timed work is not optimized away. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/**
 * The host gauge: times a fixed reference loop on the calling thread
 * that formats 400 doubles into short heap strings and joins them,
 * the kind of work a JSON writer does (about 0.06 ms).  It calls none
 * of the program's code, so its time follows the speed the host gives
 * this thread and nothing else; in the host's slow spells it slows
 * about as much as an eval request does.
 */
double
hostGaugeMs()
{
    const auto t0 = Clock::now();
    std::vector<std::string> parts;
    char text[32];
    double value = 0.1;
    for (int i = 0; i < 400; ++i) {
        value = value * 1.37 + 0.11;
        if (value > 1e6)
            value /= 1e6;
        std::string part(text,
                         std::to_chars(text, text + sizeof text, value).ptr);
        part += ",\"key\":";
        parts.push_back(std::move(part));
    }
    std::string joined;
    for (const auto &part : parts)
        joined += part;
    keep(joined);
    return msSince(t0);
}

// ---------------------------------------------------------------------
// Set-up: everything built before the first timed op.
// ---------------------------------------------------------------------

/** The Case Study I grid and the service, as one op loop needs them. */
struct Setup
{
    net::SystemConfig system;
    std::unique_ptr<core::AmpedModel> model;
    std::vector<mapping::ParallelismConfig> mappings;
    std::vector<double> batches;
    core::TrainingJob job;
    std::unique_ptr<core::MemoryModel> memory;
    std::unique_ptr<obs::MetricsRegistry> serveRegistry;
    std::unique_ptr<serve::Server> server;
};

/**
 * Builds one Setup.  The pool start-up is timed with a private pool
 * of the shared pool's size (the shared pool starts once per
 * process); @p pool keeps it alive until the caller stops timing, so
 * joining its threads is not counted.
 */
Setup
buildSetup(Tracer &tracer, std::uint64_t request,
           std::unique_ptr<ThreadPool> &pool)
{
    Tracer::Scope root(tracer, "setup", request);
    Setup s;
    {
        Tracer::Scope span(tracer, "setup.model", request);
        s.system = net::presets::a100Cluster1024();
        s.model = std::make_unique<core::AmpedModel>(
            bench::caseStudyModel(s.system));
    }
    {
        Tracer::Scope span(tracer, "mapping.enumerate", request);
        s.mappings = mapping::MappingSpace(s.system).enumerate();
    }
    s.batches.reserve(kCaseBatches);
    for (std::size_t i = 0; i < kCaseBatches; ++i)
        s.batches.push_back(2048.0 + 8.0 * static_cast<double>(i));
    s.job = bench::caseStudyJob(s.batches.front());
    {
        Tracer::Scope span(tracer, "setup.memory_model", request);
        s.memory = std::make_unique<core::MemoryModel>(
            model::OpCounter(model::presets::megatron145B()),
            hw::presets::a100());
    }
    {
        Tracer::Scope span(tracer, "setup.server", request);
        s.serveRegistry = std::make_unique<obs::MetricsRegistry>();
        serve::ServerOptions options;
        options.threads = kPoolThreads;
        options.registry = s.serveRegistry.get();
        s.server = std::make_unique<serve::Server>(options);
    }
    {
        Tracer::Scope span(tracer, "setup.pool", request);
        pool = std::make_unique<ThreadPool>(kPoolThreads);
    }
    return s;
}

// ---------------------------------------------------------------------
// Bookkeeping shared by all loops.
// ---------------------------------------------------------------------

/** One timed request line and the host gauge around it. */
struct LineSample
{
    ServeClass cls = ServeClass::eval;
    double ms = 0.0;
    double gaugeMs = 0.0; ///< Slower of the readings before and after.
};

/** One timed serve round and the set-up repetition run after it. */
struct RoundSample
{
    std::vector<LineSample> lines;
    double roundMs = 0.0; ///< The round's handleLine calls.
    double setupS = 0.0;
    double setupGaugeMs = 0.0; ///< As LineSample::gaugeMs.
};

struct RunState
{
    Args args;
    Tracer tracer;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures; ///< First few, for stderr.

    // Untraced ops of the main loop (end-to-end samples).
    std::vector<double> opMs;
    double busyMs = 0.0;
    std::size_t busyOps = 0;

    // Traced-run bookkeeping.
    std::vector<double> tracedOpMs;
    Usage usage;           ///< Summed over untraced main-loop ops.
    std::size_t usageOps = 0;

    // Timed serve rounds (serve_mix ops and case probe rounds).
    std::vector<RoundSample> rounds;

    // Counter deltas around traced handleLine calls.
    std::map<std::string, double> counters;

    // Case-op facts for the per-layer summary.
    double resultEntries = 0.0;
    std::size_t optimizeOps = 0;
    explore::OptimizerCounters optimizeTotals;

    explicit RunState(Args a) : args(std::move(a)), tracer(args.trace)
    {}

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Adds the resources used since @p before to the per-op totals. */
void
countUsage(RunState &run, const Usage &before, std::size_t ops)
{
    const Usage after = usageNow();
    run.usage.cpuSeconds += after.cpuSeconds - before.cpuSeconds;
    run.usage.minorFaults += after.minorFaults - before.minorFaults;
    run.usageOps += ops;
}

/** Records the duration of the traced op whose root span is the
 *  @p root-th span recorded. */
void
recordTraced(RunState &run, std::size_t root)
{
    const auto &span = run.tracer.spans()[root];
    run.tracedOpMs.push_back((span.endUs - span.startUs) / 1000.0);
}

/** Bitwise equality of two evaluation results. */
bool
sameResult(const core::EvaluationResult &a,
           const core::EvaluationResult &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Checks each entry against a scalar AmpedModel::evaluate. */
bool
matchesScalar(RunState &run, std::uint64_t request,
              const core::AmpedModel &model,
              const core::TrainingJob &job_template,
              const std::vector<explore::SweepEntry> &entries)
{
    for (const auto &entry : entries) {
        core::TrainingJob job = job_template;
        job.batchSize = entry.batchSize;
        core::EvaluationResult scalar;
        {
            Tracer::Scope span(run.tracer, "core.evaluate", request);
            scalar = model.evaluate(entry.mapping, job);
        }
        if (!sameResult(scalar, entry.result))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// sweep_case1
// ---------------------------------------------------------------------

struct SweepOutcome
{
    std::size_t entries = 0;
    std::size_t skipped = 0;
    std::size_t memorySkipped = 0;
    std::size_t failed = 0;
    RunStatus status = RunStatus::Completed;
    std::vector<explore::SweepEntry> top;
};

SweepOutcome
summarize(explore::SweepResult &result)
{
    SweepOutcome out;
    out.entries = result.entries.size();
    out.skipped = result.skipped;
    out.memorySkipped = result.memorySkipped;
    out.failed = result.failed;
    out.status = result.status;
    const std::size_t k = std::min<std::size_t>(10, out.entries);
    out.top.assign(result.entries.begin(), result.entries.begin() + k);
    return out;
}

/** The timed op: sweep, rank, keep the top 10, free the grid. */
SweepOutcome
sweepOp(const explore::Explorer &explorer, const Setup &s)
{
    auto result = explorer.sweep(s.mappings, s.batches, s.job);
    explore::Explorer::sortByTime(result.entries);
    return summarize(result);
}

/** The grid's jobs, built the way Explorer::sweep builds them. */
std::vector<core::TrainingJob>
caseJobs(const Setup &s)
{
    std::vector<core::TrainingJob> jobs;
    jobs.reserve(s.batches.size());
    for (const double batch : s.batches) {
        core::TrainingJob job = s.job;
        job.batchSize = batch;
        jobs.push_back(job);
    }
    return jobs;
}

/** The same op, split at the layer calls Explorer::sweep makes. */
SweepOutcome
tracedSweepOp(RunState &run, const Setup &s, std::uint64_t request)
{
    Tracer &tracer = run.tracer;
    const std::vector<core::TrainingJob> jobs = caseJobs(s);
    std::optional<explore::SweepKernel> kernel;
    {
        Tracer::Scope span(tracer, "explore.kernel_build", request);
        kernel.emplace(*s.model, nullptr, s.mappings, jobs,
                       kPoolThreads);
    }
    explore::SweepResult result;
    {
        Tracer::Scope span(tracer, "explore.sweep_grid", request);
        result = kernel->sweepGrid(kPoolThreads);
    }
    kernel.reset();
    {
        Tracer::Scope span(tracer, "explore.rank", request);
        explore::Explorer::sortByTime(result.entries);
    }
    run.resultEntries = static_cast<double>(result.entries.size());
    return summarize(result);
}

void
checkSweep(RunState &run, const Setup &s, const SweepOutcome &out,
           std::uint64_t request)
{
    Tracer::Scope span(run.tracer, "check", request);
    if (out.status != RunStatus::Completed ||
        out.entries != kCasePoints || out.skipped != 0 ||
        out.memorySkipped != 0 || out.failed != 0 || out.top.size() != 10)
        return run.fail("sweep_case1: expected " +
                        std::to_string(kCasePoints) +
                        " entries with none skipped or failed, got " +
                        std::to_string(out.entries) + " entries, " +
                        std::to_string(out.skipped) + " skipped, " +
                        std::to_string(out.failed) + " failed");
    if (!matchesScalar(run, request, *s.model, s.job, out.top))
        run.fail("sweep_case1: a top-10 result differs from "
                 "AmpedModel::evaluate");
}

// ---------------------------------------------------------------------
// optimize_case1
// ---------------------------------------------------------------------

/** Expected optimizer answer, read from the checked-in golden. */
struct OptimizeGolden
{
    testing::GoldenRecord record;

    double
    get(const std::string &key) const
    {
        const double *value = record.find(key);
        if (value == nullptr)
            throw std::runtime_error("golden has no key " + key);
        return *value;
    }
};

explore::OptimizerRequest
caseRequest(const Setup &s)
{
    explore::OptimizerRequest request;
    request.batchSizes = s.batches;
    request.jobTemplate = s.job;
    request.topK = 3;
    return request;
}

/**
 * One traced search, then (outside the op) a SweepKernel build on the
 * same grid: optimizeOver builds its kernel internally, and the
 * separate build splits the search's time into kernel and search.
 */
explore::OptimizerResult
tracedOptimizeOp(RunState &run, const Setup &s,
                 const explore::Optimizer &optimizer,
                 const explore::OptimizerRequest &request,
                 std::uint64_t i)
{
    explore::OptimizerResult found;
    const std::size_t root = run.tracer.spans().size();
    {
        Tracer::Scope op(run.tracer, "op", i);
        Tracer::Scope span(run.tracer, "explore.optimize", i);
        found = optimizer.optimizeOver(s.mappings, request);
    }
    recordTraced(run, root);
    ++run.optimizeOps;
    auto &t = run.optimizeTotals;
    t.points += found.counters.points;
    t.evaluated += found.counters.evaluated;
    t.prunedByBound += found.counters.prunedByBound;
    t.prunedByMemory += found.counters.prunedByMemory;

    Tracer::Scope side(run.tracer, "side", i);
    const std::vector<core::TrainingJob> jobs = caseJobs(s);
    std::optional<explore::SweepKernel> kernel;
    {
        Tracer::Scope span(run.tracer, "explore.kernel_build", i);
        kernel.emplace(*s.model, s.memory.get(), s.mappings, jobs,
                       kPoolThreads);
    }
    return found;
}

void
checkOptimize(RunState &run, const Setup &s, const OptimizeGolden &golden,
              const explore::OptimizerResult &found,
              std::uint64_t request)
{
    Tracer::Scope span(run.tracer, "check", request);
    const auto &c = found.counters;
    const std::vector<std::pair<const char *, double>> expected = {
        {"optimizer/grid/points", static_cast<double>(c.points)},
        {"optimizer/counters/evaluated",
         static_cast<double>(c.evaluated)},
        {"optimizer/counters/pruned_by_bound",
         static_cast<double>(c.prunedByBound)},
        {"optimizer/counters/pruned_by_memory",
         static_cast<double>(c.prunedByMemory)},
        {"optimizer/counters/skipped_infeasible",
         static_cast<double>(c.skippedInfeasible)},
        {"optimizer/counters/failed", static_cast<double>(c.failed)},
    };
    if (found.status != RunStatus::Completed || found.topK.size() != 3)
        return run.fail("optimize_case1: search did not complete with "
                        "3 strategies");
    for (const auto &[key, value] : expected)
        if (golden.get(key) != value)
            return run.fail(std::string("optimize_case1: ") + key +
                            " differs from the golden");
    const auto &best = found.topK.front();
    if (golden.get("optimizer/best/tp") !=
            static_cast<double>(best.mapping.tp()) ||
        golden.get("optimizer/best/pp") !=
            static_cast<double>(best.mapping.pp()) ||
        golden.get("optimizer/best/dp") !=
            static_cast<double>(best.mapping.dp()) ||
        golden.get("optimizer/best/batch") != best.batchSize)
        return run.fail("optimize_case1: best strategy differs from "
                        "the golden");
    for (std::size_t rank = 0; rank < 3; ++rank)
        if (golden.get("optimizer/top" + std::to_string(rank + 1) +
                       "/days") != found.topK[rank].result.trainingDays())
            return run.fail("optimize_case1: top-" +
                            std::to_string(rank + 1) +
                            " days differ from the golden");
    if (!matchesScalar(run, request, *s.model, s.job, found.topK))
        run.fail("optimize_case1: a top-3 result differs from "
                 "AmpedModel::evaluate");
}

// ---------------------------------------------------------------------
// The op loop
// ---------------------------------------------------------------------

/**
 * Runs one untimed warm-up op, then ops until the time budget is
 * spent and at least @p need ops were timed.  With tracing on, even
 * ops run traced (ABAB...).  @p between runs after every op: the
 * interleaved set-up repetitions and probe rounds, which thereby
 * sample the whole run instead of its first or last seconds.
 */
void
mainLoop(RunState &run, std::size_t need,
         const std::function<void(std::uint64_t, bool)> &op,
         const std::function<void()> &between)
{
    op(0, false);
    between();
    const auto start = Clock::now();
    for (std::uint64_t i = 1;; ++i) {
        const double elapsed = msSince(start) / 1000.0;
        const std::size_t have =
            run.args.trace ? std::min(run.opMs.size(),
                                      run.tracedOpMs.size())
                           : run.opMs.size();
        if ((elapsed >= run.args.seconds && have >= need) ||
            elapsed >= kMaxLoopSeconds)
            break;
        op(i, run.args.trace && i % 2 == 0);
        between();
    }
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

/** The service's model for a generated (model, nodes) pair, built
 *  the way the server builds it from the same params. */
core::AmpedModel
serveModel(const std::string &model_name, std::int64_t nodes)
{
    net::SystemConfig sys;
    sys.numNodes = nodes;
    sys.acceleratorsPerNode = perfbench::kPerNode;
    sys.intraLink = explore::interconnectByName("nvlink-a100");
    sys.interLink = explore::interconnectByName("hdr");
    sys.nicsPerNode = perfbench::kPerNode;
    sys.name = std::to_string(nodes) + "x" +
               std::to_string(perfbench::kPerNode) + " a100 / hdr";
    sys.validate();
    core::ModelOptions options =
        validate::calibrations::nvswitchOptions(perfbench::kPerNode);
    options.bubbleOverlapRatio = 0.1;
    return core::AmpedModel(explore::modelByName(model_name),
                            explore::acceleratorByName("a100"),
                            hw::MicrobatchEfficiency(0.9, 30.0, 0.25),
                            sys, options);
}

/** The closed-loop serve client: its server, traffic and the state
 *  it keeps across lines. */
struct ServeClient
{
    serve::Server &server;
    obs::MetricsRegistry &serveRegistry;
    perfbench::TrafficGenerator traffic;
    /** First answer (the "result" object) of each sweep grid. */
    std::vector<obs::Json> firstAnswer;
    /** The benchmark's own cache, for timing get/put on the run's
     *  keys and payloads. */
    obs::MetricsRegistry sideRegistry;
    serve::SweepCacheLru sideCache;

    ServeClient(serve::Server &s, obs::MetricsRegistry &reg,
                 std::uint64_t seed)
        : server(s), serveRegistry(reg), traffic(seed),
          sideCache(s.options().cacheBudgetBytes, &sideRegistry)
    {}
};

double
counterValue(obs::MetricsRegistry &registry, const char *name)
{
    return static_cast<double>(registry.counter(name).value());
}

/** The counters whose deltas around traced handleLine calls feed
 *  the per-layer ratios. */
std::vector<std::pair<std::string, double>>
serveCounters(ServeClient &client)
{
    auto &global = obs::MetricsRegistry::global();
    std::vector<std::pair<std::string, double>> out;
    for (const char *name :
         {"explore.sweep_cache.hits", "explore.sweep_cache.misses",
          "explore.optimize.points", "explore.optimize.evaluated",
          "explore.optimize.pruned_by_bound",
          "explore.optimize.pruned_by_memory"})
        out.emplace_back(name, counterValue(global, name));
    for (const char *name : {"serve.cache.hits", "serve.cache.misses"})
        out.emplace_back(name, counterValue(client.serveRegistry, name));
    return out;
}

/** Checks one response against its request and earlier answers. */
void
checkResponse(RunState &run, ServeClient &client,
              const ServeLine &line, const obs::Json &doc)
{
    const std::string what = std::string("serve ") +
                             perfbench::className(line.cls) + " id " +
                             std::to_string(line.id) + ": ";
    const bool grid_line = line.cls == ServeClass::sweep ||
                           line.cls == ServeClass::rerank ||
                           line.cls == ServeClass::repeat;
    if (grid_line && client.firstAnswer.size() <= line.grid)
        client.firstAnswer.resize(line.grid + 1); // null = no answer
    if (!doc.isObject() || !doc.contains("status") ||
        doc.at("status").asString() != "ok")
        return run.fail(what + "status is not ok");
    if (doc.at("id").asInt() != line.id)
        return run.fail(what + "response id differs");
    if (doc.at("run_status").asString() != "completed")
        return run.fail(what + "run did not complete");
    const obs::Json &result = doc.at("result");
    switch (line.cls) {
      case ServeClass::sweep:
        client.firstAnswer[line.grid] = result;
        break;
      case ServeClass::repeat:
        if (result.dump() != client.firstAnswer[line.grid].dump())
            return run.fail(what + "repeat differs from the first "
                                   "answer for its grid");
        break;
      case ServeClass::rerank: {
        const obs::Json &first = client.firstAnswer[line.grid];
        if (!first.isObject())
            return run.fail(what + "its grid has no first answer");
        for (const char *key :
             {"skipped", "memory_skipped", "failed", "visited_points",
              "cancelled_unvisited"})
            if (result.at(key).dump() != first.at(key).dump())
                return run.fail(what + key + " differs from the first "
                                             "answer for its grid");
        const auto &got = result.at("entries").items();
        const auto &want = first.at("entries").items();
        const std::size_t k = std::min<std::size_t>(
            static_cast<std::size_t>(line.top), want.size());
        if (got.size() != k)
            return run.fail(what + "wrong number of entries");
        for (std::size_t i = 0; i < k; ++i)
            if (got[i].dump() != want[i].dump())
                return run.fail(what + "entry " + std::to_string(i) +
                                " differs from the first answer");
        break;
      }
      case ServeClass::optimize:
        if (result.at("top_k").items().empty())
            return run.fail(what + "no feasible strategy");
        break;
      case ServeClass::eval:
      case ServeClass::report:
        break;
    }
}

/** Side measurements on one traced line's request and response. */
void
traceLayers(RunState &run, ServeClient &client, const ServeLine &line,
            const std::string &response, obs::Json &doc)
{
    Tracer &tracer = run.tracer;
    const auto request = static_cast<std::uint64_t>(line.id);
    {
        Tracer::Scope span(tracer, "serve.parse", request);
        const obs::Json body = serve::parseBody(
            line.text, serve::kDefaultMaxRequestBytes);
        const serve::Request parsed = serve::requestFromJson(body);
        keep(parsed);
    }
    {
        Tracer::Scope span(tracer, "obs.json_parse", request);
        doc = obs::Json::parse(response);
    }
    {
        Tracer::Scope span(tracer, "obs.json_dump", request);
        const std::string text = doc.dump();
        keep(text);
    }
    if (line.cls != ServeClass::eval && line.cls != ServeClass::report &&
        doc.contains("result")) {
        // The request's method and params stand in for the service's
        // canonical key; the payload is the response's result.
        const obs::Json body = obs::Json::parse(line.text);
        const std::string key = body.at("method").asString() + "|" +
                                body.at("params").dump();
        std::optional<std::string> hit;
        {
            Tracer::Scope span(tracer, "serve.cache_get", request);
            hit = client.sideCache.get(key);
        }
        if (!hit) {
            const std::string payload = doc.at("result").dump();
            Tracer::Scope span(tracer, "serve.cache_put", request);
            client.sideCache.put(key, payload);
        }
    }
    if (line.cls == ServeClass::eval || line.cls == ServeClass::report) {
        const auto &p = line.point;
        const auto model = serveModel(p.model, p.nodes);
        const auto m = mapping::makeMapping(p.tpIntra, p.ppIntra,
                                            p.dpIntra, p.tpInter,
                                            p.ppInter, p.dpInter);
        core::TrainingJob job;
        job.batchSize = static_cast<double>(p.batch);
        Tracer::Scope span(tracer, "core.evaluate", request);
        keep(model.evaluate(m, job));
    }
    if (line.cls == ServeClass::rerank) {
        // The grid's sweep is in the Explorer memo (the service put it
        // there), so this sweepAll is a memo hit; rank a copy of it.
        const auto &grid = client.traffic.sweepGrid(line.grid);
        explore::Explorer explorer(serveModel(grid.model, grid.nodes));
        explorer.setThreads(kPoolThreads);
        core::TrainingJob job;
        job.batchSize = 8192.0;
        std::vector<double> batches(grid.batches.begin(),
                                    grid.batches.end());
        auto result = explorer.sweepAll(batches, job);
        Tracer::Scope span(tracer, "explore.rank", request);
        explore::Explorer::sortByTime(result.entries);
    }
}

/** How one serve round is accounted. */
enum class RoundKind
{
    warmup, ///< Checked only.
    probe,  ///< Class latencies only (case workloads).
    timed,  ///< serve_mix op: class latencies, round time, usage.
    traced  ///< serve_mix traced op: spans and counter deltas.
};

/** Replays one round of lines through the client's server; returns
 *  its latencies (none for warm-up and traced rounds), each line's
 *  between two host gauge readings. */
RoundSample
serveRound(RunState &run, ServeClient &client, RoundKind kind)
{
    const bool traced = kind == RoundKind::traced;
    const bool timed = kind == RoundKind::timed || kind == RoundKind::probe;
    RoundSample sample;
    double gauge = timed ? hostGaugeMs() : 0.0;
    for (const ServeLine &line : client.traffic.nextRound()) {
        ++run.attempted;
        const auto request = static_cast<std::uint64_t>(line.id);
        std::vector<std::pair<std::string, double>> counters_before;
        std::uint64_t op_span = 0;
        if (traced) {
            counters_before = serveCounters(client);
            op_span = run.tracer.open("op", request);
        }
        std::string response;
        const Usage before = usageNow();
        const auto t0 = Clock::now();
        {
            Tracer::Scope span(run.tracer, "serve.handle_line", request);
            response = client.server.handleLine(line.text);
        }
        const double ms = msSince(t0);
        if (kind == RoundKind::timed)
            countUsage(run, before, 1);
        obs::Json doc;
        try {
            if (traced) {
                const auto after = serveCounters(client);
                for (std::size_t i = 0; i < after.size(); ++i)
                    run.counters[after[i].first] +=
                        after[i].second - counters_before[i].second;
                if (line.cls == ServeClass::optimize)
                    run.counters["optimize.requests"] += 1;
                traceLayers(run, client, line, response, doc);
            } else {
                doc = obs::Json::parse(response);
            }
            checkResponse(run, client, line, doc);
        } catch (const std::exception &e) {
            run.fail(std::string("serve id ") + std::to_string(line.id) +
                     ": " + e.what());
        }
        if (traced) {
            run.tracer.close(op_span);
            run.tracedOpMs.push_back(ms);
        } else if (timed) {
            const double next = hostGaugeMs();
            sample.lines.push_back({line.cls, ms, std::max(gauge, next)});
            sample.roundMs += ms;
            gauge = next;
        }
    }
    if (kind == RoundKind::timed) {
        run.opMs.push_back(sample.roundMs);
        run.busyMs += sample.roundMs;
        run.busyOps += perfbench::kRoundLines;
    }
    return sample;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Sample count or base, for standard error and the per-layer
     *  summary. */
    std::string note;
};

/** A percentile, or an error naming the shortfall. */
double
reportable(const std::vector<double> &samples, double pct,
           const std::string &name)
{
    const auto value = perfbench::percentile(samples, pct);
    if (!value)
        throw std::runtime_error(
            name + ": " + std::to_string(samples.size()) +
            " samples leave fewer than " +
            std::to_string(perfbench::kMinBeyond) + " beyond p" +
            std::to_string(static_cast<int>(pct)));
    return *value;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
samplesNote(std::size_t n)
{
    return std::to_string(n) + " samples";
}

std::vector<Metric>
endToEndMetrics(const RunState &run, std::optional<double> case_peak_mib)
{
    // Every gauge reading of the run sets the usual one; each metric
    // then counts the samples whose readings were within the slack of
    // it (and, at worst, the fastest-gauged samples its percentile
    // needs).
    std::vector<double> all_gauges;
    std::vector<double> round_gauges;
    std::vector<double> setup_gauges;
    std::array<std::vector<double>, perfbench::kServeClassCount>
        class_gauges;
    std::array<std::vector<double>, perfbench::kServeClassCount> class_ms;
    for (const auto &r : run.rounds) {
        std::vector<double> line_gauges;
        for (const auto &line : r.lines) {
            const auto c = static_cast<std::size_t>(line.cls);
            class_gauges[c].push_back(line.gaugeMs);
            class_ms[c].push_back(line.ms);
            all_gauges.push_back(line.gaugeMs);
            line_gauges.push_back(line.gaugeMs);
        }
        // A round's reading is its lines' median.
        std::sort(line_gauges.begin(), line_gauges.end());
        round_gauges.push_back(line_gauges[perfbench::nearestRank(
                                               line_gauges.size(), 50.0) -
                                           1]);
        setup_gauges.push_back(r.setupGaugeMs);
        all_gauges.push_back(r.setupGaugeMs);
    }
    const double limit = kGaugeSlack * perfbench::usualGauge(all_gauges);
    // The samples of @p values whose gauge readings qualify.
    const auto usual = [&](const std::vector<double> &values,
                           const std::vector<double> &gauges,
                           std::size_t min_keep) {
        std::vector<double> out;
        for (const std::size_t i :
             perfbench::samplesWithin(gauges, limit, min_keep))
            out.push_back(values[i]);
        return out;
    };
    const auto note = [](const std::vector<double> &kept, std::size_t of,
                         const char *what = "samples") {
        return std::to_string(kept.size()) + " of " + std::to_string(of) +
               " " + what + " at the host's usual speed";
    };

    const std::size_t p50_needs = perfbench::minSamplesFor(50.0);
    std::vector<double> setup_s;
    for (const auto &r : run.rounds)
        setup_s.push_back(r.setupS);
    const auto kept_setup = usual(setup_s, setup_gauges, p50_needs);

    std::vector<Metric> out;
    out.push_back({"setup_s", reportable(kept_setup, 50, "setup_s"), "s",
                   note(kept_setup, setup_s.size())});
    if (run.args.workload == "serve_mix") {
        std::vector<double> round_ms;
        for (const auto &r : run.rounds)
            round_ms.push_back(r.roundMs);
        const auto kept = usual(round_ms, round_gauges, p50_needs);
        double busy_ms = 0.0;
        for (const double ms : kept)
            busy_ms += ms;
        out.push_back({"op_p50_ms", reportable(kept, 50, "op_p50_ms"),
                       "ms", note(kept, round_ms.size(), "rounds")});
        out.push_back({"ops_per_s",
                       static_cast<double>(kept.size() *
                                           perfbench::kRoundLines) /
                           (busy_ms / 1000.0),
                       "1/s", note(kept, round_ms.size(), "rounds")});
    } else {
        out.push_back({"op_p50_ms", reportable(run.opMs, 50, "op_p50_ms"),
                       "ms", samplesNote(run.opMs.size())});
        out.push_back({"ops_per_s",
                       static_cast<double>(run.busyOps) /
                           (run.busyMs / 1000.0),
                       "1/s", samplesNote(run.busyOps)});
    }
    const std::vector<std::tuple<const char *, ServeClass, double>>
        class_metrics = {
            {"eval_p50_ms", ServeClass::eval, 50},
            {"eval_p90_ms", ServeClass::eval, 90},
            {"report_p50_ms", ServeClass::report, 50},
            {"sweep_p50_ms", ServeClass::sweep, 50},
            {"rerank_p50_ms", ServeClass::rerank, 50},
            {"repeat_p50_ms", ServeClass::repeat, 50},
            {"optimize_p50_ms", ServeClass::optimize, 50},
        };
    for (const auto &[name, c, pct] : class_metrics) {
        const auto i = static_cast<std::size_t>(c);
        const auto kept = usual(class_ms[i], class_gauges[i],
                                perfbench::minSamplesFor(pct));
        out.push_back({name, reportable(kept, pct, name), "ms",
                       note(kept, class_ms[i].size())});
    }
    out.push_back(
        case_peak_mib
            ? Metric{"peak_rss_mb", *case_peak_mib, "MiB",
                     "ru_maxrss after op 0, before any probe round"}
            : Metric{"peak_rss_mb", peakRssMiB(), "MiB",
                     "ru_maxrss at the end of the run"});
    return out;
}

std::vector<Metric>
perLayerMetrics(const RunState &run)
{
    std::map<std::string, perfbench::LayerTotals> layers;
    for (auto &t : perfbench::layerTotals(run.tracer.spans()))
        layers[t.name] = t;
    // Mean self time per span of one name (0 when none was recorded:
    // the workload's ops never call that layer).
    const auto mean = [&](const char *name, double scale) {
        const auto it = layers.find(name);
        if (it == layers.end() || it->second.count == 0)
            return std::pair<double, std::string>{0.0, "0 spans"};
        return std::pair<double, std::string>{
            it->second.selfUs / static_cast<double>(it->second.count) *
                scale,
            std::to_string(it->second.count) + " spans"};
    };
    const auto counter = [&](const char *name) {
        const auto it = run.counters.find(name);
        return it == run.counters.end() ? 0.0 : it->second;
    };

    std::vector<Metric> out;
    const auto add_mean = [&](const char *metric, const char *span,
                              double scale, const char *unit) {
        const auto [value, note] = mean(span, scale);
        out.push_back({metric, value, unit, note});
    };
    add_mean("mapping.enumerate_ms", "mapping.enumerate", 1e-3, "ms");
    add_mean("explore.kernel_build_ms", "explore.kernel_build", 1e-3,
             "ms");
    add_mean("explore.sweep_grid_ms", "explore.sweep_grid", 1e-3, "ms");
    add_mean("explore.rank_ms", "explore.rank", 1e-3, "ms");
    out.push_back({"explore.result_mb",
                   run.resultEntries *
                       static_cast<double>(sizeof(explore::SweepEntry)) /
                       (1024.0 * 1024.0),
                   "MiB",
                   "base " + std::to_string(static_cast<long long>(
                                 run.resultEntries)) +
                       " entries x " +
                       std::to_string(sizeof(explore::SweepEntry)) +
                       " B"});
    {
        const auto [opt, opt_note] = mean("explore.optimize", 1e-3);
        const auto [kb, kb_note] = mean("explore.kernel_build", 1e-3);
        out.push_back({"explore.search_ms", opt > 0.0 ? opt - kb : 0.0,
                       "ms", "optimizeOver " + opt_note +
                                 " minus kernel build " + kb_note});
    }
    // Optimizer counters: per search, from OptimizerResult::counters
    // on optimize_case1 and from the registry deltas around traced
    // optimize requests on serve_mix.
    double searches = static_cast<double>(run.optimizeOps);
    double points = static_cast<double>(run.optimizeTotals.points);
    double evaluated = static_cast<double>(run.optimizeTotals.evaluated);
    double by_bound =
        static_cast<double>(run.optimizeTotals.prunedByBound);
    double by_memory =
        static_cast<double>(run.optimizeTotals.prunedByMemory);
    if (searches == 0.0) {
        searches = counter("optimize.requests");
        points = counter("explore.optimize.points");
        evaluated = counter("explore.optimize.evaluated");
        by_bound = counter("explore.optimize.pruned_by_bound");
        by_memory = counter("explore.optimize.pruned_by_memory");
    }
    const std::string per = "per search, " +
                            std::to_string(static_cast<long long>(
                                searches)) +
                            " searches";
    out.push_back({"explore.optimize.evaluated", ratio(evaluated, searches),
                   "count", per});
    out.push_back({"explore.optimize.pruned_by_bound",
                   ratio(by_bound, searches), "count", per});
    out.push_back({"explore.optimize.pruned_by_memory",
                   ratio(by_memory, searches), "count", per});
    out.push_back({"explore.optimize.eval_ratio", ratio(evaluated, points),
                   "ratio",
                   "base " + std::to_string(static_cast<long long>(
                                 points)) +
                       " points"});
    {
        const double hits = counter("explore.sweep_cache.hits");
        const double lookups =
            hits + counter("explore.sweep_cache.misses");
        out.push_back({"explore.memo_hit_ratio", ratio(hits, lookups),
                       "ratio",
                       "base " + std::to_string(static_cast<long long>(
                                     lookups)) +
                           " lookups"});
    }
    add_mean("core.evaluate_us", "core.evaluate", 1.0, "us");
    add_mean("serve.parse_us", "serve.parse", 1.0, "us");
    add_mean("serve.cache_get_us", "serve.cache_get", 1.0, "us");
    add_mean("serve.cache_put_us", "serve.cache_put", 1.0, "us");
    {
        const double hits = counter("serve.cache.hits");
        const double lookups = hits + counter("serve.cache.misses");
        out.push_back({"serve.cache_hit_ratio", ratio(hits, lookups),
                       "ratio",
                       "base " + std::to_string(static_cast<long long>(
                                     lookups)) +
                           " lookups"});
    }
    add_mean("obs.json_dump_us", "obs.json_dump", 1.0, "us");
    add_mean("obs.json_parse_us", "obs.json_parse", 1.0, "us");
    const double ops = static_cast<double>(run.usageOps);
    out.push_back({"process.cpu_s_per_op",
                   ratio(run.usage.cpuSeconds, ops), "s",
                   "base " + std::to_string(run.usageOps) +
                       " untraced ops"});
    out.push_back({"process.minflt_per_op",
                   ratio(run.usage.minorFaults, ops), "count",
                   "base " + std::to_string(run.usageOps) +
                       " untraced ops"});
    {
        // Traced samples are ops or, on serve_mix, single lines; busyMs
        // over busyOps is the untraced mean on the same footing.
        double traced = 0.0;
        for (const double ms : run.tracedOpMs)
            traced += ms;
        const double mean_traced =
            ratio(traced, static_cast<double>(run.tracedOpMs.size()));
        const double mean_plain =
            ratio(run.busyMs, static_cast<double>(run.busyOps));
        out.push_back({"trace.overhead_ratio",
                       ratio(mean_traced, mean_plain), "ratio",
                       "traced mean " + std::to_string(mean_traced) +
                           " ms over " +
                           std::to_string(run.tracedOpMs.size()) +
                           " / untraced mean " +
                           std::to_string(mean_plain) + " ms over " +
                           std::to_string(run.busyOps)});
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** The per-layer summary: self time and counts per span name, then
 *  the reported metrics with their bases. */
std::string
layerSummary(const RunState &run, const std::vector<Metric> &metrics)
{
    obs::Json spans = obs::Json::array();
    for (const auto &t : perfbench::layerTotals(run.tracer.spans())) {
        obs::Json row = obs::Json::object();
        row.set("span", t.name);
        row.set("count", static_cast<std::int64_t>(t.count));
        row.set("total_ms", t.totalUs / 1000.0);
        row.set("self_ms", t.selfUs / 1000.0);
        spans.push(std::move(row));
    }
    obs::Json rows = obs::Json::array();
    for (const auto &m : metrics) {
        obs::Json row = obs::Json::object();
        row.set("metric", m.name);
        row.set("value", m.value);
        row.set("unit", m.unit);
        row.set("base", m.note);
        rows.push(std::move(row));
    }
    obs::Json doc = obs::Json::object();
    doc.set("workload", run.args.workload);
    doc.set("seed", static_cast<std::int64_t>(run.args.seed));
    doc.set("pool_threads", static_cast<std::int64_t>(kPoolThreads));
    doc.set("spans", std::move(spans));
    doc.set("metrics", std::move(rows));
    return doc.dump(2) + "\n";
}

int
runBenchmark(const Args &args)
{
    const unsigned nproc = std::thread::hardware_concurrency();
    if (nproc != 0 && nproc < kPoolThreads)
        std::cerr << "perfbench: warning: " << nproc
                  << " hardware threads < pool size " << kPoolThreads
                  << "\n";

    RunState run(args);

    // The first set-up is the one the ops use (its cold start is not
    // timed); later repetitions, timed after each serve round, are
    // thrown away.
    std::uint64_t setups = 0;
    const auto setup_rep = [&]() {
        std::unique_ptr<ThreadPool> pool;
        const auto t0 = Clock::now();
        const Setup built = buildSetup(run.tracer, ++setups, pool);
        return msSince(t0) / 1000.0; // built and pool go after this
    };
    std::unique_ptr<ThreadPool> first_pool;
    Setup setup = buildSetup(run.tracer, ++setups, first_pool);
    first_pool.reset();
    ThreadPool::shared(); // start the shared pool before any op

    ServeClient client(*setup.server, *setup.serveRegistry, args.seed);
    const bool serve_mix = args.workload == "serve_mix";
    // One timed serve round, then one set-up repetition between two
    // host gauge readings.
    const auto gauged_round = [&](RoundKind kind) {
        RoundSample sample = serveRound(run, client, kind);
        const double before = hostGaugeMs();
        sample.setupS = setup_rep();
        sample.setupGaugeMs = std::max(before, hostGaugeMs());
        run.rounds.push_back(std::move(sample));
    };
    // A case workload's peak is read before its first probe round:
    // probe rounds fill the process-wide Explorer memo and the
    // service cache, which would otherwise make up much of it.
    std::optional<double> case_peak_mib;
    const auto between = [&]() {
        if (args.trace) {
            setup_rep(); // for the set-up spans
            return;
        }
        if (serve_mix)
            return;
        if (!case_peak_mib)
            case_peak_mib = peakRssMiB();
        // The first round after a case op finds the caches cold and
        // the freed grid's pages gone; it runs untimed.
        serveRound(run, client, RoundKind::warmup);
        for (std::size_t k = 0; k < kProbeRounds; ++k)
            gauged_round(RoundKind::probe);
    };
    const auto record = [&](double ms) {
        run.opMs.push_back(ms);
        run.busyMs += ms;
        ++run.busyOps;
    };
    // A traced run reports means, not percentiles.
    const std::size_t need =
        args.trace ? 2 : perfbench::minSamplesFor(50.0);

    if (args.workload == "sweep_case1") {
        explore::Explorer explorer(*setup.model);
        explorer.setThreads(kPoolThreads);
        mainLoop(
            run, need,
            [&](std::uint64_t i, bool traced) {
                ++run.attempted;
                SweepOutcome out;
                if (traced) {
                    const std::size_t root = run.tracer.spans().size();
                    {
                        Tracer::Scope op(run.tracer, "op", i);
                        out = tracedSweepOp(run, setup, i);
                    }
                    recordTraced(run, root);
                } else {
                    const Usage before = usageNow();
                    const auto t0 = Clock::now();
                    out = sweepOp(explorer, setup);
                    const double ms = msSince(t0);
                    if (i != 0) {
                        record(ms);
                        countUsage(run, before, 1);
                    }
                }
                checkSweep(run, setup, out, i);
            },
            between);
    } else if (args.workload == "optimize_case1") {
        const OptimizeGolden golden{
            testing::GoldenRecord::fromFile(args.golden)};
        explore::Optimizer optimizer(*setup.model);
        optimizer.setMemoryModel(*setup.memory);
        optimizer.setThreads(kPoolThreads);
        const auto request = caseRequest(setup);
        mainLoop(
            run, need,
            [&](std::uint64_t i, bool traced) {
                ++run.attempted;
                if (!traced) {
                    const Usage before = usageNow();
                    const auto t0 = Clock::now();
                    const auto found =
                        optimizer.optimizeOver(setup.mappings, request);
                    const double ms = msSince(t0);
                    if (i != 0) {
                        record(ms);
                        countUsage(run, before, 1);
                    }
                    checkOptimize(run, setup, golden, found, i);
                    return;
                }
                const auto found =
                    tracedOptimizeOp(run, setup, optimizer, request, i);
                checkOptimize(run, setup, golden, found, i);
            },
            between);
    } else {
        mainLoop(
            run, need,
            [&](std::uint64_t i, bool traced) {
                if (i == 0 || traced)
                    serveRound(run, client,
                               traced ? RoundKind::traced
                                      : RoundKind::warmup);
                else
                    gauged_round(RoundKind::timed);
            },
            between);
    }

    const std::string stem = args.outDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    const std::vector<Metric> metrics =
        args.trace ? perLayerMetrics(run)
                   : endToEndMetrics(run, case_peak_mib);
    if (args.trace) {
        writeFile(stem + ".trace.json", run.tracer.chromeJson());
        writeFile(stem + ".layers.json", layerSummary(run, metrics));
    }

    for (const auto &m : metrics)
        std::cerr << "  " << m.name << " = " << m.value << " " << m.unit
                  << "  (" << m.note << ")\n";
    for (const auto &why : run.failures)
        std::cerr << "perfbench: FAILED " << why << "\n";

    obs::Json values = obs::Json::object();
    for (const auto &m : metrics) {
        obs::Json entry = obs::Json::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        values.set(m.name, std::move(entry));
    }
    obs::Json line = obs::Json::object();
    line.set("correct", run.failed == 0);
    line.set("attempted", static_cast<std::int64_t>(run.attempted));
    line.set("failed", static_cast<std::int64_t>(run.failed));
    line.set("metrics", std::move(values));
    std::cout << line.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        // Pin the shared pool before anything sizes it.
        setenv("AMPED_THREADS", std::to_string(kPoolThreads).c_str(), 1);
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}

#include "explorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "explore/sweep_kernel.hpp"
#include "obs/metrics.hpp"

namespace amped {
namespace explore {

namespace {

/** Sort key mapping NaN to +infinity (strict weak ordering safe). */
double
timeKey(const SweepEntry &entry)
{
    const double t = entry.result.totalTime;
    return std::isnan(t) ? std::numeric_limits<double>::infinity()
                         : t;
}

/** sortByTime uses one worker per this many entries. */
constexpr std::size_t kRankRowsPerWorker = std::size_t{1} << 16;

/** sortByTime's key fill: entries per work grab. */
constexpr std::size_t kKeysPerGrab = 4096;

/** Every kSplitStride-th slot starts one permutation walk. */
constexpr std::size_t kSplitStride = 256;

/** Split points per work grab: walks vary in length, so grab few. */
constexpr std::size_t kSplitsPerGrab = 16;

} // namespace

Explorer::Explorer(core::AmpedModel model) : model_(std::move(model)) {}

void
Explorer::setMemoryModel(core::MemoryModel memory_model)
{
    memoryModel_.emplace(std::move(memory_model));
}

SweepResult
Explorer::sweep(const std::vector<mapping::ParallelismConfig> &mappings,
                const std::vector<double> &batch_sizes,
                const core::TrainingJob &job_template) const
{
    std::vector<core::TrainingJob> jobs;
    jobs.reserve(batch_sizes.size());
    for (double batch : batch_sizes) {
        core::TrainingJob job = job_template;
        job.batchSize = batch;
        jobs.push_back(job);
    }
    return sweepJobs(mappings, jobs);
}

SweepResult
Explorer::sweepJobs(
    const std::vector<mapping::ParallelismConfig> &mappings,
    const std::vector<core::TrainingJob> &jobs) const
{
    auto &metrics = obs::MetricsRegistry::global();
    static obs::Counter &points_counter =
        metrics.counter("explore.sweep.points");
    static obs::Counter &feasible_counter =
        metrics.counter("explore.sweep.feasible");
    static obs::Counter &infeasible_counter =
        metrics.counter("explore.sweep.infeasible");
    static obs::Counter &over_memory_counter =
        metrics.counter("explore.sweep.over_memory");
    static obs::Counter &failed_counter =
        metrics.counter("explore.sweep.failed");
    static obs::Histogram &sweep_seconds =
        metrics.histogram("explore.sweep.seconds", /*timing=*/true);
    obs::ScopedTimer timer(sweep_seconds);

    const std::size_t count = mappings.size() * jobs.size();
    points_counter.add(count);
    if (count == 0)
        return SweepResult{};

    const unsigned workers =
        threads_ > 0 ? threads_ : ThreadPool::defaultThreadCount();
    const SweepKernel kernel(model_,
                             memoryModel_ ? &*memoryModel_ : nullptr,
                             mappings, jobs, workers, token_);
    SweepResult out = kernel.sweepGrid(workers);

    feasible_counter.add(out.entries.size() - out.failed);
    infeasible_counter.add(out.skipped);
    over_memory_counter.add(out.memorySkipped);
    failed_counter.add(out.failed);
    return out;
}

SweepResult
Explorer::sweepAll(const std::vector<double> &batch_sizes,
                   const core::TrainingJob &job_template) const
{
    mapping::MappingSpace space(model_.system());
    const std::int64_t max_pp = model_.opCounter().config().numLayers;
    return sweep(space.enumerate(max_pp), batch_sizes, job_template);
}

RankedSweep
Explorer::sweepTop(const std::vector<double> &batch_sizes,
                   const core::TrainingJob &job_template,
                   std::size_t top) const
{
    RankedSweep out{sweepAll(batch_sizes, job_template), 0};
    auto &entries = out.sweep.entries;
    out.ranked = entries.size();
    sortByTime(entries, threads_);
    if (entries.size() > top)
        entries.resize(top);
    return out;
}

std::optional<SweepEntry>
Explorer::best(const SweepResult &sweep_result)
{
    if (sweep_result.entries.empty())
        return std::nullopt;
    const auto it = std::min_element(
        sweep_result.entries.begin(), sweep_result.entries.end(),
        [](const SweepEntry &a, const SweepEntry &b) {
            return timeKey(a) < timeKey(b);
        });
    return *it;
}

void
Explorer::sortByTime(std::vector<SweepEntry> &entries,
                     unsigned max_workers)
{
    const std::size_t n = entries.size();
    if (n < 2)
        return;
    // One worker per kRankRowsPerWorker entries, so a small ranking
    // (a serve sweep's few thousand rows) runs every phase inline.
    const std::size_t cap =
        max_workers > 0 ? max_workers : ThreadPool::defaultThreadCount();
    const std::size_t workers = std::min(
        cap, (n + kRankRowsPerWorker - 1) / kRankRowsPerWorker);
    ThreadPool &pool = ThreadPool::shared();

    // Rank 16-byte (key, index) pairs rather than the entries
    // themselves.  The index breaks key ties, so the order is exactly
    // a stable sort's.  Keys are never NaN, so -0.0 and +0.0 tie.
    std::vector<RankedIndex> order(n);
    pool.parallelFor(
        n, kKeysPerGrab,
        [&](std::size_t i) { order[i] = {timeKey(entries[i]), i}; },
        workers);

    // Sort in place: cut the pairs into `workers` equal ranges with
    // nth_element, halving the open bound intervals level by level
    // (one parallelFor per level), then sort each range.  (key,
    // index) is a strict total order, so each range receives exactly
    // the pairs of its final positions, whatever the range count.
    const std::size_t ranges = workers;
    std::vector<std::size_t> bound(ranges + 1);
    for (std::size_t k = 0; k <= ranges; ++k)
        bound[k] = k * n / ranges;
    const auto first = order.begin();
    // (lo, hi) bound indices whose interior bounds are not placed yet.
    std::vector<std::pair<std::size_t, std::size_t>> level;
    if (ranges > 1)
        level.emplace_back(0, ranges);
    while (!level.empty()) {
        pool.parallelFor(
            level.size(), 1,
            [&](std::size_t i) {
                const auto [lo, hi] = level[i];
                std::nth_element(first + bound[lo],
                                 first + bound[(lo + hi) / 2],
                                 first + bound[hi]);
            },
            workers);
        std::vector<std::pair<std::size_t, std::size_t>> next;
        for (const auto &[lo, hi] : level) {
            const std::size_t mid = (lo + hi) / 2;
            if (mid - lo > 1)
                next.emplace_back(lo, mid);
            if (hi - mid > 1)
                next.emplace_back(mid, hi);
        }
        level = std::move(next);
    }
    pool.parallelFor(
        ranges, 1,
        [&](std::size_t k) {
            std::sort(first + bound[k], first + bound[k + 1]);
        },
        workers);

    // Apply the permutation in place: slot k takes the entry at
    // order[k].index, and a placed slot is marked by pointing its
    // index at itself.  Every kSplitStride-th slot is a split point.
    // First each split point's entry moves to `held` (fixed points
    // stay); then one walk per split point fills its cycle forward
    // until the source is a split point, whose entry comes from
    // `held`.  Each walk covers the slots from its split point up to
    // the next one on its cycle, so the walks touch disjoint slots.
    const std::size_t splits = (n + kSplitStride - 1) / kSplitStride;
    std::vector<SweepEntry> held(splits);
    pool.parallelFor(
        splits, kSplitsPerGrab,
        [&](std::size_t p) {
            const std::size_t split = p * kSplitStride;
            if (order[split].index != split)
                held[p] = std::move(entries[split]);
        },
        workers);
    pool.parallelFor(
        splits, kSplitsPerGrab,
        [&](std::size_t p) {
            std::size_t slot = p * kSplitStride;
            if (order[slot].index == slot)
                return;
            for (;;) {
                const std::size_t from = order[slot].index;
                order[slot].index = slot;
                if (from % kSplitStride == 0) {
                    entries[slot] = std::move(held[from / kSplitStride]);
                    return;
                }
                entries[slot] = std::move(entries[from]);
                slot = from;
            }
        },
        workers);

    // What is left are cycles through no split point: follow each one
    // on this thread.  Every entry moves once, plus one move per split
    // point through `held` and one per remaining cycle through
    // `carried`.
    for (std::size_t start = 0; start < n; ++start) {
        if (order[start].index == start)
            continue;
        SweepEntry carried = std::move(entries[start]);
        std::size_t slot = start;
        for (;;) {
            const std::size_t from = order[slot].index;
            order[slot].index = slot;
            if (from == start) {
                entries[slot] = std::move(carried);
                break;
            }
            entries[slot] = std::move(entries[from]);
            slot = from;
        }
    }
}

std::string
sweepTable(const std::vector<SweepEntry> &entries)
{
    TextTable table({"mapping", "batch", "ub", "eff", "time/batch",
                     "training", "TFLOP/s/GPU"});
    for (const auto &e : entries) {
        table.addRow({
            e.mapping.toString(),
            units::formatFixed(e.batchSize, 0),
            units::formatFixed(e.result.microbatchSize, 1),
            units::formatFixed(e.result.efficiency, 3),
            units::formatDuration(e.result.timePerBatch),
            units::formatDuration(e.result.totalTime),
            units::formatFixed(e.result.achievedFlopsPerGpu /
                                   units::tera,
                               1),
        });
    }
    std::ostringstream oss;
    table.print(oss);
    return oss.str();
}

std::string
sweepCsv(const std::vector<SweepEntry> &entries)
{
    std::vector<std::string> headers = {
        "mapping", "tp",         "pp",          "dp",
        "batch",   "microbatch", "efficiency",  "seconds_per_batch",
        "total_seconds", "tflops_per_gpu"};
    // Derive the phase columns from the first entry so headers and
    // data rows can never silently misalign; every entry must carry
    // the same phase set (checked below).
    const auto reference_phases = entries.empty()
                                      ? core::Breakdown{}.phases()
                                      : entries.front()
                                            .result.perBatch.phases();
    for (const auto &[label, seconds] : reference_phases) {
        (void)seconds;
        std::string key = label;
        for (char &ch : key)
            if (ch == '-')
                ch = '_';
        headers.push_back(key + "_seconds");
    }
    TextTable table(std::move(headers));
    for (const auto &e : entries) {
        std::vector<std::string> row = {
            e.mapping.toString(),
            std::to_string(e.mapping.tp()),
            std::to_string(e.mapping.pp()),
            std::to_string(e.mapping.dp()),
            units::formatFixed(e.batchSize, 0),
            units::formatFixed(e.result.microbatchSize, 4),
            units::formatFixed(e.result.efficiency, 6),
            units::formatFixed(e.result.timePerBatch, 6),
            units::formatFixed(e.result.totalTime, 3),
            units::formatFixed(
                e.result.achievedFlopsPerGpu / units::tera, 3)};
        const auto entry_phases = e.result.perBatch.phases();
        if (!(entry_phases.size() == reference_phases.size()))
            fatal("sweepCsv: entry for ", e.mapping.toString(), " has ",
                  entry_phases.size(), " phases, header has ",
                  reference_phases.size());
        for (std::size_t i = 0; i < entry_phases.size(); ++i) {
            require(entry_phases[i].first == reference_phases[i].first,
                    "sweepCsv: phase mismatch at column ", i, ": '",
                    entry_phases[i].first, "' vs header '",
                    reference_phases[i].first, "'");
            row.push_back(
                units::formatFixed(entry_phases[i].second, 9));
        }
        table.addRow(std::move(row));
    }
    std::ostringstream oss;
    table.printCsv(oss);
    return oss.str();
}

std::string
breakdownTable(const core::EvaluationResult &result)
{
    TextTable table({"phase", "time/batch", "share"});
    const double total = result.perBatch.total();
    for (const auto &[label, seconds] : result.perBatch.phases()) {
        const double share = total > 0.0 ? seconds / total : 0.0;
        table.addRow({label, units::formatDuration(seconds),
                      units::formatFixed(100.0 * share, 2) + " %"});
    }
    table.addRow({"total", units::formatDuration(total), "100.00 %"});
    std::ostringstream oss;
    table.print(oss);
    return oss.str();
}

} // namespace explore
} // namespace amped

/**
 * @file
 * Shared setup for the Case Study I/II benches: the Megatron-145B on
 * 1024-A100 evaluation context, small helpers to evaluate one
 * mapping in days of training time, and the --golden-out plumbing
 * every figure/table harness uses to emit machine-readable metrics
 * for the golden-file regression suite (tools/golden_check).
 */

#ifndef AMPED_BENCH_CASE_STUDY_UTIL_HPP
#define AMPED_BENCH_CASE_STUDY_UTIL_HPP

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/amped_model.hpp"
#include "explore/explorer.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "testing/golden.hpp"
#include "validate/calibrations.hpp"

namespace amped {
namespace bench {

/**
 * The harness side of the golden workflow: parses the bench's
 * command line (`--golden-out <path>`, plus the observability
 * outputs `--trace-out <path>` and `--report-out <path>`), collects
 * metrics during the run, and writes the canonical golden record on
 * finish().  Without --golden-out the collected record is simply
 * dropped, so harnesses call add() unconditionally.
 *
 * --trace-out / --report-out are parsed for every harness; the
 * harnesses that run the discrete-event simulator consume them via
 * tracePath() / reportPath() and write Chrome-trace / run-report
 * JSON next to the golden record.  Harnesses with nothing to trace
 * ignore them.
 *
 * A bad command line (an unknown flag, or a flag without its path)
 * prints a diagnostic to stderr and exits 2.
 *
 * Usage in a harness main:
 * @code
 *   int main(int argc, char **argv) {
 *       bench::GoldenOut golden(argc, argv);
 *       ...
 *       golden.add("table2/145B/tflops", tflops);
 *       ...
 *       return golden.finish();
 *   }
 * @endcode
 */
class GoldenOut
{
  public:
    GoldenOut(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string *target = nullptr;
            if (arg == "--golden-out")
                target = &path_;
            else if (arg == "--trace-out")
                target = &tracePath_;
            else if (arg == "--report-out")
                target = &reportPath_;
            else if (arg == "--bench-out")
                target = &benchPath_;
            else if (arg == "--transcript-out")
                target = &transcriptPath_;
            else
                usageError("unknown bench option '" + arg + "'");
            if (i + 1 == argc)
                usageError(arg + " needs a file path");
            *target = argv[++i];
        }
    }

    /** True when --golden-out was given. */
    bool enabled() const { return !path_.empty(); }

    /** Chrome-trace output path ("" when --trace-out not given). */
    const std::string &tracePath() const { return tracePath_; }

    /** Run-report output path ("" when --report-out not given). */
    const std::string &reportPath() const { return reportPath_; }

    /** Wall-clock bench record path ("" when --bench-out not
     *  given); harnesses with timing results (perf numbers that
     *  cannot live in the deterministic golden) write them here. */
    const std::string &benchPath() const { return benchPath_; }

    /** Raw transcript path ("" when --transcript-out not given);
     *  the serve load generator dumps its response lines here for
     *  external schema validation. */
    const std::string &transcriptPath() const
    {
        return transcriptPath_;
    }

    /** Records one metric (NaN = infeasible point). */
    void
    add(const std::string &key, double value)
    {
        record_.add(key, value);
    }

    /** Records an optional evaluation's days, or NaN if infeasible. */
    void
    addDays(const std::string &key,
            const std::optional<core::EvaluationResult> &result)
    {
        record_.add(key, result ? result->trainingDays()
                                : std::nan(""));
    }

    /** Writes the record when enabled; the harness's exit status. */
    int
    finish() const
    {
        if (enabled())
            record_.writeFile(path_);
        return 0;
    }

  private:
    /** Reports a bad command line on stderr and exits 2. */
    [[noreturn]] static void
    usageError(const std::string &message)
    {
        std::cerr << "error: " << message
                  << " (supported: --golden-out <path>, --trace-out "
                     "<path>, --report-out <path>, --bench-out "
                     "<path>, --transcript-out <path>)\n";
        std::exit(2);
    }

    std::string path_;
    std::string tracePath_;
    std::string reportPath_;
    std::string benchPath_;
    std::string transcriptPath_;
    ::amped::testing::GoldenRecord record_;
};

/** Canonical golden key fragment for an inter-node (tp, pp, dp). */
inline std::string
interKey(std::int64_t tp, std::int64_t pp, std::int64_t dp)
{
    return "TP" + std::to_string(tp) + "_PP" + std::to_string(pp) +
           "_DP" + std::to_string(dp);
}

/** Builds the Case Study I evaluator for a given system. */
inline core::AmpedModel
caseStudyModel(const net::SystemConfig &system)
{
    return core::AmpedModel(model::presets::megatron145B(),
                            hw::presets::a100(),
                            validate::calibrations::caseStudy1(),
                            system,
                            validate::calibrations::caseStudyOptions());
}

/** The 300 B-token training job used for the day figures. */
inline core::TrainingJob
caseStudyJob(double batch)
{
    core::TrainingJob job;
    job.batchSize = batch;
    job.totalTrainingTokens = 300e9;
    return job;
}

/**
 * Evaluates one mapping; returns days, or nullopt when the point is
 * infeasible (batch too small for the mapping).
 */
inline std::optional<core::EvaluationResult>
tryEvaluate(const core::AmpedModel &model,
            const mapping::ParallelismConfig &mapping, double batch)
{
    try {
        return model.evaluate(mapping, caseStudyJob(batch));
    } catch (const UserError &) {
        return std::nullopt;
    }
}

/**
 * Evaluates a (mapping x batch) family in one parallel Explorer
 * sweep and serves the results by point; infeasible points come
 * back as nullptr (the sweep counts them as skipped).  The figure
 * harnesses render their tables from this instead of evaluating
 * serially point by point.
 */
class SweepIndex
{
  public:
    SweepIndex(const explore::Explorer &explorer,
               const std::vector<mapping::ParallelismConfig> &mappings,
               const std::vector<double> &batches)
    {
        const auto sweep = explorer.sweep(
            mappings, batches, caseStudyJob(batches.front()));
        for (const auto &entry : sweep.entries)
            results_[key(entry.mapping, entry.batchSize)] =
                entry.result;
    }

    /** The evaluated point, or nullptr when it was infeasible. */
    const core::EvaluationResult *
    find(const mapping::ParallelismConfig &mapping, double batch) const
    {
        const auto it = results_.find(key(mapping, batch));
        return it == results_.end() ? nullptr : &it->second;
    }

  private:
    static std::string
    key(const mapping::ParallelismConfig &mapping, double batch)
    {
        return mapping.toString() + "@" +
               units::formatFixed(batch, 0);
    }

    std::map<std::string, core::EvaluationResult> results_;
};

} // namespace bench
} // namespace amped

#endif // AMPED_BENCH_CASE_STUDY_UTIL_HPP

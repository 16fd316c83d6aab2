/**
 * @file
 * The tests' oracle for the sweep kernel: a serial loop of
 * core::AmpedModel::evaluate over a (mapping x job) grid in
 * mapping-major order, classifying each point the way
 * Explorer::sweepJobs must:
 *
 *  - with a memory model, the microbatch size and the fit check run
 *    first, and a point that does not fit is memory-skipped;
 *  - a UserError from evaluate() (or the fit check) skips the point;
 *  - any other exception, or a non-finite total time, NaN-pins the
 *    point and logs one warning line.
 *
 * The kernel (explore/sweep_kernel.hpp) caches and reorders nothing
 * that changes a bit, so its SweepResult must equal this one exactly:
 * entries, counters and warning lines.
 *
 * referenceRank is the oracle for Explorer::sortByTime: a
 * std::stable_sort by total time, which shares no code with the
 * parallel ranking.
 */

#ifndef AMPED_TESTS_REFERENCE_SWEEP_HPP
#define AMPED_TESTS_REFERENCE_SWEEP_HPP

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"

namespace amped {
namespace testutil {

/** A result with every numeric field NaN, built here rather than
 *  taken from the kernel, so the oracle shares no code with it. */
inline core::EvaluationResult
referenceNanResult()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    core::EvaluationResult r;
    core::Breakdown &b = r.perBatch;
    b.computeForward = b.computeBackward = b.weightUpdate = nan;
    b.commTpIntra = b.commTpInter = b.commPp = b.commMoe = nan;
    b.commGradIntra = b.commGradInter = b.bubble = nan;
    r.timePerBatch = r.numBatches = r.totalTime = nan;
    r.microbatchSize = r.numMicrobatches = r.efficiency = nan;
    r.achievedFlopsPerGpu = r.tokensPerSecond = nan;
    return r;
}

/**
 * Evaluates every grid point with AmpedModel::evaluate, one at a
 * time, on the calling thread.
 *
 * @param memory_model Optional memory screen (nullptr = off).
 */
inline explore::SweepResult
referenceSweep(const core::AmpedModel &model,
               const core::MemoryModel *memory_model,
               const std::vector<mapping::ParallelismConfig> &mappings,
               const std::vector<core::TrainingJob> &jobs)
{
    explore::SweepResult out;
    for (const auto &m : mappings) {
        for (const auto &job : jobs) {
            ++out.visitedPoints;
            explore::SweepEntry entry;
            entry.mapping = m;
            entry.batchSize = job.batchSize;
            std::string failure;
            try {
                if (memory_model != nullptr) {
                    const double ub = job.microbatching.microbatchSize(
                        job.batchSize, m);
                    if (!memory_model->fits(m, job.batchSize, ub)) {
                        ++out.memorySkipped;
                        continue;
                    }
                }
                entry.result = model.evaluate(m, job);
                if (std::isfinite(entry.result.totalTime)) {
                    out.entries.push_back(std::move(entry));
                    continue;
                }
                failure = "non-finite total time";
            } catch (const UserError &) {
                ++out.skipped;
                continue;
            } catch (const std::exception &e) {
                failure = e.what();
            }
            log::warn("sweep point ", m.toString(), " batch ",
                      job.batchSize, " failed (", failure,
                      "); pinning it to nan");
            entry.result = referenceNanResult();
            out.entries.push_back(std::move(entry));
            ++out.failed;
        }
    }
    return out;
}

/**
 * Ranks entries ascending by total time with std::stable_sort, NaN
 * keyed as +infinity: equal times (-0.0 equals +0.0) keep their input
 * order, and NaN-pinned entries go last in input order.
 */
inline void
referenceRank(std::vector<explore::SweepEntry> &entries)
{
    const auto key = [](const explore::SweepEntry &e) {
        const double t = e.result.totalTime;
        return std::isnan(t) ? std::numeric_limits<double>::infinity()
                             : t;
    };
    std::stable_sort(entries.begin(), entries.end(),
                     [&key](const explore::SweepEntry &a,
                            const explore::SweepEntry &b) {
                         return key(a) < key(b);
                     });
}

} // namespace testutil
} // namespace amped

#endif // AMPED_TESTS_REFERENCE_SWEEP_HPP

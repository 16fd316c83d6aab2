/**
 * @file
 * Sample statistics for the benchmark's reported timings.
 *
 * Every percentile the benchmark reports goes through percentile(),
 * which refuses (returns nullopt) unless at least kMinBeyond samples
 * lie strictly beyond the percentile's rank: a p50 needs 20 samples
 * or more, a p90 needs 100 or more.  A tail percentile read off a
 * handful of samples is the largest sample, not a property of the
 * system.  usualGauge() and samplesWithin() pick the samples taken
 * at the host's usual speed (see the host gauge in main.cpp).
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a percentile before it is reported. */
constexpr std::size_t kMinBeyond = 10;

/**
 * 1-based nearest rank of percentile @p pct (0 < pct < 100) in @p n
 * sorted samples: ceil(pct / 100 * n), clamped to [1, n].
 */
std::size_t nearestRank(std::size_t n, double pct);

/** Samples strictly beyond the nearest rank of @p pct. */
std::size_t samplesBeyond(std::size_t n, double pct);

/**
 * Nearest-rank percentile of @p samples, or nullopt when fewer than
 * @p min_beyond samples lie beyond it.
 */
std::optional<double> percentile(std::vector<double> samples,
                                  double pct,
                                  std::size_t min_beyond = kMinBeyond);

/** Smallest sample count whose @p pct percentile is reportable. */
std::size_t minSamplesFor(double pct,
                          std::size_t min_beyond = kMinBeyond);

/** The host gauge's usual reading: the 2nd percentile (nearest
 *  rank) of @p gauge_ms, or 0 when there are none. */
double usualGauge(std::vector<double> gauge_ms);

/**
 * Indices, in sample order, of the samples whose host-gauge reading
 * @p gauge_ms is at most @p limit.  When fewer than @p min_keep
 * qualify, the @p min_keep samples with the smallest readings are
 * taken instead (every sample, if there are no more).
 */
std::vector<std::size_t> samplesWithin(const std::vector<double> &gauge_ms,
                                       double limit, std::size_t min_keep);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP

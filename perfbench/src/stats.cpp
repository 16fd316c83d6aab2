#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::size_t
nearestRank(std::size_t n, double pct)
{
    if (n == 0)
        return 0;
    const double exact = pct / 100.0 * static_cast<double>(n);
    const auto rank = static_cast<std::size_t>(std::ceil(exact));
    return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n - nearestRank(n, pct);
}

std::optional<double>
percentile(std::vector<double> samples, double pct,
           std::size_t min_beyond)
{
    if (samples.empty() ||
        samplesBeyond(samples.size(), pct) < min_beyond)
        return std::nullopt;
    const std::size_t rank = nearestRank(samples.size(), pct);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::size_t
minSamplesFor(double pct, std::size_t min_beyond)
{
    std::size_t n = 1;
    while (samplesBeyond(n, pct) < min_beyond)
        ++n;
    return n;
}

double
usualGauge(std::vector<double> gauge_ms)
{
    if (gauge_ms.empty())
        return 0.0;
    const std::size_t rank = nearestRank(gauge_ms.size(), 2.0);
    std::nth_element(gauge_ms.begin(), gauge_ms.begin() + (rank - 1),
                     gauge_ms.end());
    return gauge_ms[rank - 1];
}

std::vector<std::size_t>
samplesWithin(const std::vector<double> &gauge_ms, double limit,
              std::size_t min_keep)
{
    std::vector<std::size_t> order(gauge_ms.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return gauge_ms[a] < gauge_ms[b];
                     });
    std::size_t keep = 0;
    while (keep < order.size() && gauge_ms[order[keep]] <= limit)
        ++keep;
    order.resize(std::max(keep, std::min(min_keep, order.size())));
    std::sort(order.begin(), order.end());
    return order;
}

} // namespace perfbench

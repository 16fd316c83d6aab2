#include "parallelism.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace amped {
namespace mapping {

void
ParallelismConfig::validate() const
{
    // The checks in this file branch before fatal() so toString()
    // runs only when one fails: they run on every sweep table row.
    if (!(tpIntra >= 1 && tpInter >= 1 && ppIntra >= 1 &&
          ppInter >= 1 && dpIntra >= 1 && dpInter >= 1))
        fatal("parallelism degrees must all be >= 1 (", toString(),
              ")");
}

void
ParallelismConfig::validateFor(const net::SystemConfig &system) const
{
    validate();
    const std::int64_t intra = tpIntra * ppIntra * dpIntra;
    const std::int64_t inter = tpInter * ppInter * dpInter;
    if (!(intra == system.acceleratorsPerNode))
        fatal("mapping ", toString(), ": intra-node degree product ",
              intra, " != accelerators per node ",
              system.acceleratorsPerNode);
    if (!(inter == system.numNodes))
        fatal("mapping ", toString(), ": inter-node degree product ",
              inter, " != node count ", system.numNodes);
}

std::string
ParallelismConfig::toString() const
{
    std::ostringstream oss;
    auto part = [&oss](const char *label, std::int64_t value,
                       bool &first) {
        if (value > 1) {
            if (!first)
                oss << "*";
            oss << label << value;
            first = false;
        }
    };
    bool first = true;
    part("TP", tpIntra, first);
    part("PP", ppIntra, first);
    part("DP", dpIntra, first);
    if (first)
        oss << "1";
    oss << " | ";
    first = true;
    part("TP", tpInter, first);
    part("PP", ppInter, first);
    part("DP", dpInter, first);
    if (first)
        oss << "1";
    oss << " (intra|inter)";
    return oss.str();
}

ParallelismConfig
makeMapping(std::int64_t tp_intra, std::int64_t pp_intra,
            std::int64_t dp_intra, std::int64_t tp_inter,
            std::int64_t pp_inter, std::int64_t dp_inter)
{
    ParallelismConfig cfg;
    cfg.tpIntra = tp_intra;
    cfg.ppIntra = pp_intra;
    cfg.dpIntra = dp_intra;
    cfg.tpInter = tp_inter;
    cfg.ppInter = pp_inter;
    cfg.dpInter = dp_inter;
    cfg.validate();
    return cfg;
}

double
Microbatching::microbatchSize(double batch,
                              const ParallelismConfig &p) const
{
    require(batch > 0.0, "batch size must be positive, got ", batch);
    double ub;
    if (microbatchSizeOverride > 0.0) {
        ub = microbatchSizeOverride;
    } else if (numMicrobatchesOverride > 0.0) {
        // With a fixed microbatch count, the microbatch size follows
        // from the per-replica batch.
        ub = batch / static_cast<double>(p.dp()) /
             numMicrobatchesOverride;
    } else {
        ub = batch / static_cast<double>(p.dp() * p.pp());
    }
    if (!(ub >= 1.0))
        fatal("batch ", batch, " too small for mapping ", p.toString(),
              ": microbatch size would be ", ub, " (< 1 sample)");
    return ub;
}

double
Microbatching::numMicrobatches(double batch,
                               const ParallelismConfig &p) const
{
    if (numMicrobatchesOverride > 0.0)
        return numMicrobatchesOverride;
    const double per_replica = batch / static_cast<double>(p.dp());
    const double n_ub = per_replica / microbatchSize(batch, p);
    if (!(n_ub >= 1.0))
        fatal("batch ", batch, " with mapping ", p.toString(),
              " yields ", n_ub, " microbatches (< 1)");
    return n_ub;
}

MappingSpace::MappingSpace(net::SystemConfig system)
    : system_(std::move(system))
{
    system_.validate();
}

std::vector<ParallelismConfig>
MappingSpace::enumerate(std::int64_t max_pp) const
{
    const auto intra_splits =
        threeWayFactorizations(system_.acceleratorsPerNode);
    const auto inter_splits = threeWayFactorizations(system_.numNodes);

    std::vector<ParallelismConfig> mappings;
    mappings.reserve(intra_splits.size() * inter_splits.size());
    for (const auto &intra : intra_splits) {
        for (const auto &inter : inter_splits) {
            ParallelismConfig cfg = makeMapping(
                intra[0], intra[1], intra[2], inter[0], inter[1],
                inter[2]);
            if (max_pp > 0 && cfg.pp() > max_pp)
                continue;
            mappings.push_back(cfg);
        }
    }
    return mappings;
}

std::vector<std::array<std::int64_t, 3>>
threeWayFactorizations(std::int64_t n)
{
    require(n >= 1, "threeWayFactorizations: n must be >= 1, got ", n);
    std::vector<std::array<std::int64_t, 3>> result;
    for (std::int64_t a : math::divisorsOf(n)) {
        const std::int64_t rest = n / a;
        for (std::int64_t b : math::divisorsOf(rest))
            result.push_back({a, b, rest / b});
    }
    return result;
}

} // namespace mapping
} // namespace amped

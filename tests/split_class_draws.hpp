/**
 * @file
 * Mapping pools for the property tests' draws that give one (dp, pp)
 * class two memory shapes.
 *
 * On one system every valid mapping uses every device, so tp is fixed
 * within a (dp, pp) class, and a memory table keyed by the class
 * would pass any draw from one system's mapping space.  These pools
 * mix a system's mappings with those of the same system with twice
 * the nodes.  The latter fail validateFor() but pass validate(), so
 * with a memory model they reach the fit check with their own tp,
 * as the per-point reference does.
 */

#ifndef AMPED_TESTS_SPLIT_CLASS_DRAWS_HPP
#define AMPED_TESTS_SPLIT_CLASS_DRAWS_HPP

#include <random>
#include <vector>

#include "mapping/parallelism.hpp"

namespace amped {
namespace testutil {

/** True when two of @p mappings share (dp, pp) but not tp. */
inline bool
splitsAClass(const std::vector<mapping::ParallelismConfig> &mappings)
{
    for (const auto &a : mappings)
        for (const auto &b : mappings)
            if (a.dp() == b.dp() && a.pp() == b.pp() && a.tp() != b.tp())
                return true;
    return false;
}

/**
 * The mappings of @p system and of the same system with twice the
 * nodes, in that order.
 */
inline std::vector<mapping::ParallelismConfig>
mixedDeviceCountMappings(const net::SystemConfig &system)
{
    net::SystemConfig twice = system;
    twice.numNodes *= 2;
    auto mappings = mapping::MappingSpace(system).enumerate();
    const auto more = mapping::MappingSpace(twice).enumerate();
    mappings.insert(mappings.end(), more.begin(), more.end());
    return mappings;
}

/**
 * Every mapping of @p mixed in one (dp, pp) class drawn at random
 * among the classes that hold two shapes; @p mixed must hold one.
 */
inline std::vector<mapping::ParallelismConfig>
splitClassPool(std::mt19937 &rng,
               const std::vector<mapping::ParallelismConfig> &mixed)
{
    std::uniform_int_distribution<std::size_t> pick(0, mixed.size() - 1);
    for (;;) {
        const mapping::ParallelismConfig &seed = mixed[pick(rng)];
        std::vector<mapping::ParallelismConfig> pool;
        for (const auto &m : mixed)
            if (m.dp() == seed.dp() && m.pp() == seed.pp())
                pool.push_back(m);
        if (splitsAClass(pool))
            return pool;
    }
}

} // namespace testutil
} // namespace amped

#endif // AMPED_TESTS_SPLIT_CLASS_DRAWS_HPP

/**
 * @file
 * Bit-pattern views of doubles and of sweep entries, for the suites
 * that hold two evaluation paths to the same bytes (the batched
 * engine, the optimizer, concurrent callers, the memory model's
 * cached layer sum).
 */

#ifndef AMPED_TESTS_ENTRY_BITS_HPP
#define AMPED_TESTS_ENTRY_BITS_HPP

#include <cstdint>
#include <cstring>
#include <vector>

#include "explore/explorer.hpp"

namespace amped {
namespace testutil {

/** The bit pattern of @p value (NaN payloads and -0.0 included). */
inline std::uint64_t
bits(double value)
{
    std::uint64_t out = 0;
    static_assert(sizeof(out) == sizeof(value));
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/** Every numeric field of one sweep entry, as bit patterns. */
inline std::vector<std::uint64_t>
entryBits(const explore::SweepEntry &entry)
{
    const auto &r = entry.result;
    const auto &b = r.perBatch;
    return {bits(entry.batchSize),      bits(b.computeForward),
            bits(b.computeBackward),    bits(b.weightUpdate),
            bits(b.commTpIntra),        bits(b.commTpInter),
            bits(b.commPp),             bits(b.commMoe),
            bits(b.commGradIntra),      bits(b.commGradInter),
            bits(b.bubble),             bits(r.timePerBatch),
            bits(r.numBatches),         bits(r.totalTime),
            bits(r.microbatchSize),     bits(r.numMicrobatches),
            bits(r.efficiency),         bits(r.achievedFlopsPerGpu),
            bits(r.tokensPerSecond)};
}

} // namespace testutil
} // namespace amped

#endif // AMPED_TESTS_ENTRY_BITS_HPP

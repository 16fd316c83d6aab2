/**
 * @file
 * FNV-1a 64-bit hashing (header-only).
 *
 * Hashes the (N_TP * N_PP, dpIntra, dpInter) keys of
 * core::SweepTermCache's gradient table (core/batch_terms.cpp).
 * FNV-1a is not cryptographic; the table compares full keys, so a
 * collision only costs a probe.
 */

#ifndef AMPED_COMMON_HASH_HPP
#define AMPED_COMMON_HASH_HPP

#include <cstddef>
#include <cstdint>

namespace amped {

/** FNV-1a offset basis / prime (64-bit variant). */
inline constexpr std::uint64_t kFnv1aOffsetBasis =
    1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/** Incremental FNV-1a hasher. */
class Fnv1a
{
  public:
    /** Mixes @p size raw bytes into the state. */
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state_ ^= static_cast<std::uint64_t>(p[i]);
            state_ *= kFnv1aPrime;
        }
    }

    std::uint64_t digest() const { return state_; }

  private:
    std::uint64_t state_ = kFnv1aOffsetBasis;
};

} // namespace amped

#endif // AMPED_COMMON_HASH_HPP

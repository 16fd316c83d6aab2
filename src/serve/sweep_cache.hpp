/**
 * @file
 * Byte-budgeted LRU response cache shared across serve requests.
 *
 * The service's one result cache.  It stores the serialized result
 * JSON of completed sweep / optimize requests keyed by a canonical
 * request string, accounts the exact byte size of every entry (key +
 * value), and evicts least-recently-used entries until the configured
 * budget holds again.  The budget is in bytes, not entries, because
 * one cached 145b-scale sweep result dwarfs a thousand tiny ones.
 *
 * Caching serialized responses (not SweepResult objects) keeps the
 * byte accounting exact and makes a hit O(1): the server replays the
 * stored string into the response envelope without re-rendering.
 * Only RunStatus::Completed results may be inserted — a cancelled
 * sweep's prefix is valid for its caller but would silently serve as
 * "the full grid" to the next one.
 *
 * A ranked result cut to its first k entries answers any request for
 * a top <= k (the rank is a stable total order, so a top-k is a prefix
 * of every larger top); put() records that k and get() checks it.  An
 * entry that cannot answer a larger top is a miss, and the fresh
 * answer the server then puts replaces it.
 *
 * Thread safety: all operations take an internal mutex, so one cache
 * instance may be shared by a TCP accept loop and tests hammering it
 * concurrently.
 *
 * Observability (registered lazily in the configured registry):
 *   serve.cache.hits           get() found an entry that answers
 *   serve.cache.misses         get() found nothing that answers
 *   serve.cache.evicted_bytes  bytes discarded to regain the budget
 *   serve.cache.evictions      entries discarded
 *   serve.cache.bytes          gauge: bytes currently resident
 *   serve.cache.entries        gauge: entries currently resident
 */

#ifndef AMPED_SERVE_SWEEP_CACHE_HPP
#define AMPED_SERVE_SWEEP_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.hpp"

namespace amped {

namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
} // namespace obs

namespace serve {

/**
 * Bounded LRU map from canonical request keys to serialized result
 * JSON, evicting by total resident bytes.
 */
class SweepCacheLru
{
  public:
    /**
     * @param budget_bytes Maximum resident bytes (keys + values).
     *        Entries are evicted oldest-use first until the budget
     *        holds; a single entry larger than the whole budget is
     *        simply not cached.
     * @param registry Metrics destination (nullptr = the global
     *        registry).
     */
    explicit SweepCacheLru(std::size_t budget_bytes,
                           obs::MetricsRegistry *registry = nullptr);

    /** put()'s default: the value answers a request for any top. */
    static constexpr std::size_t kAnyTop =
        std::numeric_limits<std::size_t>::max();

    /**
     * Looks up @p key for a request that wants the first @p top
     * ranked entries, refreshing its recency on a hit.  An entry
     * whose covered top (see put()) is below @p top does not answer
     * the request, and the lookup counts as a miss.
     *
     * @return The cached serialized result, or nullopt on a miss.
     */
    std::optional<std::string> get(const std::string &key,
                                   std::size_t top = 0);

    /**
     * Inserts (or replaces) @p key -> @p value and evicts
     * least-recently-used entries until the byte budget holds.
     * Inserting an entry that alone exceeds the budget is a no-op.
     *
     * @param covered_top The largest top the value answers: the
     *        entry count of a ranking cut short, kAnyTop for a whole
     *        ranking or an unranked result.
     */
    void put(const std::string &key, const std::string &value,
             std::size_t covered_top = kAnyTop);

    /** Entries currently resident. */
    std::size_t size() const;

    /** Bytes currently resident (keys + values). */
    std::size_t bytes() const;

    /** The configured byte budget. */
    std::size_t budgetBytes() const { return budgetBytes_; }

    /** Drops every entry (counts as eviction for the metrics). */
    void clear();

  private:
    struct Entry
    {
        std::string key;   ///< Owned copy (collision-free map key).
        std::string value; ///< Serialized result JSON.
        std::size_t coveredTop = kAnyTop; ///< See put().
        std::uint64_t stamp = 0; ///< Recency (larger = fresher).
    };

    static std::size_t entryBytes(const Entry &entry)
    {
        return entry.key.size() + entry.value.size();
    }

    /** Evicts LRU entries until bytes_ <= budgetBytes_. */
    void evictToBudget() AMPED_REQUIRES(mutex_);

    void publishGauges() AMPED_REQUIRES(mutex_);

    const std::size_t budgetBytes_;
    mutable Mutex mutex_;
    std::unordered_map<std::string, Entry> entries_
        AMPED_GUARDED_BY(mutex_);
    std::uint64_t clock_ AMPED_GUARDED_BY(mutex_) = 0;
    std::size_t bytes_ AMPED_GUARDED_BY(mutex_) = 0;

    obs::Counter *hitsCounter_;
    obs::Counter *missesCounter_;
    obs::Counter *evictedBytesCounter_;
    obs::Counter *evictionsCounter_;
    obs::Gauge *bytesGauge_;
    obs::Gauge *entriesGauge_;
};

} // namespace serve
} // namespace amped

#endif // AMPED_SERVE_SWEEP_CACHE_HPP

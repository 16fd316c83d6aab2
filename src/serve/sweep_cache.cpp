#include "serve/sweep_cache.hpp"

#include "obs/metrics.hpp"

namespace amped {
namespace serve {

SweepCacheLru::SweepCacheLru(std::size_t budget_bytes,
                             obs::MetricsRegistry *registry)
    : budgetBytes_(budget_bytes)
{
    obs::MetricsRegistry &r =
        registry != nullptr ? *registry
                            : obs::MetricsRegistry::global();
    hitsCounter_ = &r.counter("serve.cache.hits");
    missesCounter_ = &r.counter("serve.cache.misses");
    evictedBytesCounter_ = &r.counter("serve.cache.evicted_bytes");
    evictionsCounter_ = &r.counter("serve.cache.evictions");
    bytesGauge_ = &r.gauge("serve.cache.bytes");
    entriesGauge_ = &r.gauge("serve.cache.entries");
}

std::optional<std::string>
SweepCacheLru::get(const std::string &key, std::size_t top)
{
    MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.coveredTop < top) {
        missesCounter_->add(1);
        return std::nullopt;
    }
    hitsCounter_->add(1);
    it->second.stamp = ++clock_;
    return it->second.value;
}

void
SweepCacheLru::put(const std::string &key, const std::string &value,
                   std::size_t covered_top)
{
    MutexLock lock(mutex_);
    if (key.size() + value.size() > budgetBytes_)
        return;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        bytes_ -= entryBytes(it->second);
        it->second.value = value;
        it->second.coveredTop = covered_top;
        it->second.stamp = ++clock_;
        bytes_ += entryBytes(it->second);
    } else {
        Entry entry{key, value, covered_top, ++clock_};
        bytes_ += entryBytes(entry);
        entries_.emplace(key, std::move(entry));
    }
    evictToBudget();
    publishGauges();
}

std::size_t
SweepCacheLru::size() const
{
    MutexLock lock(mutex_);
    return entries_.size();
}

std::size_t
SweepCacheLru::bytes() const
{
    MutexLock lock(mutex_);
    return bytes_;
}

void
SweepCacheLru::clear()
{
    MutexLock lock(mutex_);
    for (const auto &[key, entry] : entries_) {
        evictedBytesCounter_->add(entryBytes(entry));
        evictionsCounter_->add(1);
    }
    entries_.clear();
    bytes_ = 0;
    publishGauges();
}

void
SweepCacheLru::evictToBudget()
{
    // The budget is a handful of entries in practice; a linear LRU
    // scan beats maintaining an intrusive list.
    while (bytes_ > budgetBytes_ && !entries_.empty()) {
        auto lru = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it)
            if (it->second.stamp < lru->second.stamp)
                lru = it;
        evictedBytesCounter_->add(entryBytes(lru->second));
        evictionsCounter_->add(1);
        bytes_ -= entryBytes(lru->second);
        entries_.erase(lru);
    }
}

void
SweepCacheLru::publishGauges()
{
    bytesGauge_->set(static_cast<double>(bytes_));
    entriesGauge_->set(static_cast<double>(entries_.size()));
}

} // namespace serve
} // namespace amped

#include "net/duplicate_cache.hpp"

#include "util/contracts.hpp"

namespace rrnet::net {

DuplicateCache::DuplicateCache(std::size_t capacity) : capacity_(capacity) {
  RRNET_EXPECTS(capacity > 0);
}

bool DuplicateCache::observe(std::uint64_t key) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++it->second.count;
    ++stats_.hits;
    // Refresh recency: a key still being heard must not age out while colder
    // keys sit in the cache.
    order_.splice(order_.end(), order_, it->second.pos);
    return false;
  }
  order_.push_back(key);
  entries_.emplace(key, Entry{1u, std::prev(order_.end())});
  if (entries_.size() > capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
    ++stats_.evictions;
  }
  return true;
}

bool DuplicateCache::erase(std::uint64_t key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  order_.erase(it->second.pos);
  entries_.erase(it);
  return true;
}

bool DuplicateCache::seen(std::uint64_t key) const {
  return entries_.count(key) > 0;
}

std::uint32_t DuplicateCache::count(std::uint64_t key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? 0u : it->second.count;
}

void snapshot_metrics(const DuplicateCache& cache, obs::MetricRegistry& reg) {
  reg.add(obs::metric::kNetDupCacheHits, cache.stats().hits);
  reg.add(obs::metric::kNetDupCacheEvictions, cache.stats().evictions);
}

}  // namespace rrnet::net

// Bounded duplicate-suppression cache keyed by Packet::flood_key().
//
// Counter-1 flooding requires "a list of sequence numbers of received
// packets" per node; the cache also counts how many copies were heard, which
// the counter-based flooding variants and the election logic use.
//
// Eviction is least-recently-OBSERVED, not FIFO-by-insertion: under FIFO a
// packet whose duplicates are still arriving could be evicted purely by
// insertion age, after which a late copy looked "fresh" and re-flooded (and
// its duplicate counter silently restarted). Every observation therefore
// refreshes the key's position; only keys the node has genuinely stopped
// hearing fall off the end.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "util/pooled_containers.hpp"

namespace rrnet::net {

/// Lifetime counters for one cache (suppression pressure + window misses).
struct DuplicateCacheStats {
  std::uint64_t hits = 0;       ///< observations of already-known keys
  std::uint64_t evictions = 0;  ///< keys pushed out by the capacity bound
};

class DuplicateCache {
 public:
  /// Keep at most `capacity` distinct keys; the least-recently-observed key
  /// is evicted when a new key would exceed the budget.
  explicit DuplicateCache(std::size_t capacity = 4096);

  /// Record one observation of `key`. Returns true iff it was NEW.
  bool observe(std::uint64_t key);
  /// True iff the key has been observed (and not yet evicted).
  [[nodiscard]] bool seen(std::uint64_t key) const;
  /// Number of observations of `key` still in the cache (0 if unknown).
  [[nodiscard]] std::uint32_t count(std::uint64_t key) const;
  /// Drop `key` outright (no eviction counted). Returns true iff present.
  bool erase(std::uint64_t key);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const DuplicateCacheStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct Entry {
    std::uint32_t count = 0;
    util::PooledList<std::uint64_t>::iterator pos;  ///< position in order_
  };

  std::size_t capacity_;
  util::PooledUnorderedMap<std::uint64_t, Entry> entries_;
  util::PooledList<std::uint64_t> order_;  ///< front = least recently observed
  DuplicateCacheStats stats_;
};

/// Accumulate one cache's counters into a registry under the obs::metric
/// net.dup_cache_* names (protocols call this per cache they own).
void snapshot_metrics(const DuplicateCache& cache, obs::MetricRegistry& reg);

}  // namespace rrnet::net

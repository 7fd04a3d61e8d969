// Multi-seed replication with thread-parallel execution.
//
// Replications are shared-nothing: each thread builds and runs its own
// SimInstance from `base` with seed = derive_stream_seed(base.seed, i), so a
// parallel run produces bit-identical per-replication results to a serial
// one. Seeds are hash-derived (never base.seed + i) so runs at adjacent base
// seeds draw from disjoint streams. Metrics are aggregated into mean +/- CI
// summaries in replication-index order, independent of thread interleaving.
#pragma once

#include <cstddef>

#include "sim/scenario.hpp"
#include "util/stats.hpp"

namespace rrnet::sim {

/// Cross-replication summaries of the four paper metrics.
struct Aggregated {
  util::Summary delivery_ratio;
  util::Summary delay_s;
  util::Summary hops;
  util::Summary mac_packets;
  util::Summary mac_per_delivered;  ///< protocol overhead per useful packet
  /// Per-layer counters merged across replications in index order
  /// (counters sum, gauges max) — thread-count independent.
  obs::MetricRegistry metrics;
  std::size_t replications = 0;
};

/// Run `replications` independent copies of `base` (per-replication seeds
/// hash-derived from (base.seed, i)) on up to `threads` worker threads
/// (0 = hardware concurrency).
///
/// A replication that throws stops the hand-out of further replications;
/// after every worker has joined, the failure with the lowest replication
/// index is rethrown here. A ContractViolation comes back as a
/// ContractViolation whose what() names the replication index, the base
/// seed and the derived seed; any other exception is rethrown unchanged.
[[nodiscard]] Aggregated run_replications(const ScenarioConfig& base,
                                          std::size_t replications,
                                          std::size_t threads = 0);

}  // namespace rrnet::sim

#include "sim/replication.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "des/rng.hpp"
#include "sim/runner.hpp"
#include "util/contracts.hpp"

namespace rrnet::sim {

Aggregated run_replications(const ScenarioConfig& base,
                            std::size_t replications, std::size_t threads) {
  RRNET_EXPECTS(replications > 0);
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, replications);

  std::vector<ScenarioResult> results(replications);
  // failures[i] holds replication i's exception. The first failure stops
  // the hand-out of new indices; replications already claimed run to the
  // end, so every index below a failed one has run too.
  std::vector<std::exception_ptr> failures(replications);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto worker = [&]() {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= replications) return;
      ScenarioConfig config = base;
      config.seed = des::derive_stream_seed(base.seed, i);
      try {
        results[i] = run_scenario(config);
      } catch (...) {
        failures[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  // Indices are claimed in order, so the lowest failed index is the same
  // at any thread count: rethrow that one.
  for (std::size_t i = 0; i < replications; ++i) {
    if (!failures[i]) continue;
    try {
      std::rethrow_exception(failures[i]);
    } catch (const ContractViolation& e) {
      throw ContractViolation(
          "replication " + std::to_string(i) + " (base seed " +
          std::to_string(base.seed) + ", derived seed " +
          std::to_string(des::derive_stream_seed(base.seed, i)) +
          "): " + e.what());
    }
  }

  Aggregated agg;
  agg.replications = replications;
  util::Accumulator delivery, delay, hops, mac, mac_per;
  for (const ScenarioResult& r : results) {
    delivery.add(r.delivery_ratio);
    delay.add(r.mean_delay_s);
    hops.add(r.mean_hops);
    mac.add(static_cast<double>(r.mac_packets));
    if (r.delivered > 0) {
      mac_per.add(static_cast<double>(r.mac_packets) /
                  static_cast<double>(r.delivered));
    }
    // Merge in index order: counter sums and gauge maxes come out identical
    // whatever thread ran which replication.
    agg.metrics.merge(r.metrics);
  }
  agg.delivery_ratio = delivery.summary();
  agg.delay_s = delay.summary();
  agg.hops = hops.summary();
  agg.mac_packets = mac.summary();
  agg.mac_per_delivered = mac_per.summary();
  return agg;
}

}  // namespace rrnet::sim

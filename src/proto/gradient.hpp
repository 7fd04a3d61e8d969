// Gradient Routing comparator (§4.4, after Poor [32]).
//
// Like Routeless Routing, nodes learn a hop-count gradient from flooded
// discovery packets. Unlike RR, forwarding is NOT arbitrated: every node
// whose stored hop count toward the target is smaller than the previous
// transmitter's relays the packet (once, after a small random jitter).
// The paper's §4.4 point — "every node with a smaller hop count may
// retransmit the same packet, resulting in a significant increase in the
// number of packet transmissions" and extra congestion — falls out of this
// rule; the abl_gradient_vs_rr bench quantifies it.
#pragma once

#include <cstdint>
#include <vector>

#include "net/duplicate_cache.hpp"
#include "net/node.hpp"
#include "proto/route_wait.hpp"
#include "util/pooled_containers.hpp"

namespace rrnet::proto {

struct GradientConfig {
  des::Time jitter = 2e-3;      ///< relay jitter (collision avoidance only)
  std::uint8_t ttl = 32;
  des::Time discovery_lambda = 10e-3;
  des::Time discovery_timeout = 2.0;
  std::uint32_t max_discovery_retries = 3;
  std::size_t pending_capacity = 32;
};

struct GradientStats {
  std::uint64_t discoveries_started = 0;
  std::uint64_t discovery_relays = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t relays = 0;
  std::uint64_t not_on_gradient = 0;  ///< copies heard but not relayed
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t pending_dropped = 0;
};

class GradientProtocol final : public RouteWait::Owner {
 public:
  GradientProtocol(net::Node& node, GradientConfig config = {});

  void on_packet(const net::PacketRef& packet, const phy::RxInfo& info,
                 bool for_us, std::uint32_t mac_src) override;
  std::uint64_t send_data(std::uint32_t target,
                          std::uint32_t payload_bytes) override;
  const char* name() const noexcept override { return "gradient"; }
  void snapshot_metrics(obs::MetricRegistry& reg) const override;

  [[nodiscard]] const GradientStats& gradient_stats() const noexcept {
    return stats_;
  }

 private:
  void update_table(std::uint32_t origin, std::uint32_t sequence,
                    std::uint16_t hops_to_me);
  void handle_discovery(const net::PacketRef& packet);
  void handle_forwarded(const net::PacketRef& packet);
  RouteWait::Limits wait_limits() const override {
    return {config_.discovery_timeout, config_.max_discovery_retries,
            config_.pending_capacity};
  }
  bool discover(std::uint32_t target, std::uint32_t retries) override;
  bool route_known(std::uint32_t target) const override {
    return table_.count(target) > 0;
  }
  void send_held(std::uint32_t target,
                 std::vector<net::PacketRef> held) override;
  void gave_up(std::size_t dropped) override {
    stats_.pending_dropped += dropped;
  }
  void originate(net::PacketRef packet);

  GradientConfig config_;
  des::Rng rng_;
  util::PooledUnorderedMap<std::uint32_t,
                           std::pair<std::uint16_t, std::uint32_t>>
      table_;  ///< target -> (hops, freshest sequence)
  net::DuplicateCache seen_;
  net::DuplicateCache relayed_;
  net::DuplicateCache delivered_;
  RouteWait wait_{*this};
  std::uint32_t next_sequence_ = 0;
  GradientStats stats_;
};

}  // namespace rrnet::proto

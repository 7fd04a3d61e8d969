// Routeless Routing (§4).
//
// No node ever stores a route. Each node keeps only an *active node table*
// mapping a target node to the number of hops from that target to itself,
// learned passively from the actual-hop-count field every packet carries.
// Forwarding a path-reply or data packet is a local leader election among
// the receivers, with the backoff derived from the hop-count gradient
// (HopGradientBackoff); the previous transmitter acts as arbiter — it
// acknowledges the first relay it overhears and retransmits after silence.
//
// Path discovery floods a PathDiscovery packet (counter-1 by default, SSAF
// optionally); the destination answers with a PathReply that finds its own
// way back through successive leader elections. Data packets travel exactly
// like path replies.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/arbiter.hpp"
#include "core/backoff_policy.hpp"
#include "core/election.hpp"
#include "net/duplicate_cache.hpp"
#include "net/node.hpp"
#include "proto/route_wait.hpp"
#include "util/pool.hpp"
#include "util/pooled_containers.hpp"

namespace rrnet::proto {

struct RoutelessConfig {
  /// Election backoff band width (the paper's λ). Must comfortably exceed
  /// the data-frame airtime: losers can only concede after the winner's
  /// relay has fully arrived, so λ below the airtime degenerates into
  /// everyone relaying (the paper: "if λ is too small, the difference
  /// between backoff delays ... will be too small to avoid collisions").
  /// At 1 Mb/s a 256-byte data packet takes ~2.5 ms of air; 50 ms gives
  /// collision-free separation while keeping per-hop delay moderate (the
  /// paper's Figure-3 end-to-end delays, ~0.2-0.45 s over 5-7 hops, imply a
  /// per-hop budget of this order).
  des::Time lambda = 50e-3;
  std::uint32_t unknown_penalty_hops = 4;  ///< bands for table-less nodes
  /// The arbiter must wait out the slowest plausible relay: the penalty
  /// band tops out at (unknown_penalty_hops + 1) * lambda plus MAC queueing.
  core::ArbiterConfig arbiter{/*relay_timeout=*/500e-3, /*max_retransmits=*/2};
  std::uint8_t ttl = 32;
  des::Time discovery_lambda = 10e-3;  ///< counter-1 flood backoff
  des::Time discovery_timeout = 2.0;
  std::uint32_t max_discovery_retries = 3;
  std::size_t pending_capacity = 32;  ///< buffered data per awaited target
  bool ssaf_discovery = false;  ///< flood discovery with SSAF backoff
};

struct RoutelessStats {
  std::uint64_t discoveries_started = 0;
  std::uint64_t discovery_retries = 0;
  std::uint64_t discovery_failures = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t discovery_relays = 0;
  std::uint64_t relays = 0;          ///< PathReply/Data relays won & sent
  std::uint64_t re_relays = 0;       ///< resends triggered by retransmission
  std::uint64_t netacks_sent = 0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t replies_delivered = 0;
  std::uint64_t pending_dropped = 0;
  std::uint64_t ttl_expired = 0;
};

class RoutelessProtocol final : public RouteWait::Owner {
 public:
  RoutelessProtocol(net::Node& node, RoutelessConfig config = {});

  void start() override;
  void on_packet(const net::PacketRef& packet, const phy::RxInfo& info,
                 bool for_us, std::uint32_t mac_src) override;
  std::uint64_t send_data(std::uint32_t target,
                          std::uint32_t payload_bytes) override;
  const char* name() const noexcept override { return "routeless"; }
  void snapshot_metrics(obs::MetricRegistry& reg) const override;

  /// Active-node-table lookup (paper §4.1); 0 hops = the node itself.
  [[nodiscard]] bool knows_target(std::uint32_t target) const;
  [[nodiscard]] std::uint32_t hops_to(std::uint32_t target) const;

  [[nodiscard]] const RoutelessStats& rr_stats() const noexcept { return stats_; }
  [[nodiscard]] const core::ElectionStats& election_stats() const noexcept {
    return elections_.stats();
  }
  [[nodiscard]] const core::ArbiterStats& arbiter_stats() const noexcept {
    return arbiter_.stats();
  }

 private:
  struct TableEntry {
    std::uint16_t hops = 0;
    std::uint32_t sequence = 0;  ///< freshest origin sequence backing `hops`
  };
  struct RelayState {
    bool relayed = false;
    std::uint16_t armed_hops = 0;    ///< actual_hops of the copy we armed on
    std::uint16_t relayed_hops = 0;  ///< actual_hops of the copy we sent
    std::uint32_t armed_from = net::kNoNode;  ///< neighbor we first heard it from
    std::uint32_t cancelled_from = net::kNoNode;  ///< relay that cancelled us
    std::uint16_t cancelled_hops = 0;
    std::uint8_t re_relays_used = 0;          ///< bounded resend budget
    net::PacketRef relayed_copy;     ///< for re-relay on retransmission
  };
  void update_table(std::uint32_t origin, std::uint32_t sequence,
                    std::uint16_t hops_to_me);
  void handle_discovery(const net::PacketRef& packet, const phy::RxInfo& info);
  void handle_forwarded(const net::PacketRef& packet, std::uint32_t mac_src);
  void handle_netack(const net::PacketRef& packet);
  void send_reply(const net::PacketRef& discovery);
  RouteWait::Limits wait_limits() const override {
    return {config_.discovery_timeout, config_.max_discovery_retries,
            config_.pending_capacity};
  }
  bool discover(std::uint32_t target, std::uint32_t retries) override;
  bool route_known(std::uint32_t target) const override {
    // Learned passively while waiting, or from the path reply.
    return table_.count(target) > 0;
  }
  void send_held(std::uint32_t target,
                 std::vector<net::PacketRef> held) override;
  void gave_up(std::size_t dropped) override {
    ++stats_.discovery_failures;
    stats_.pending_dropped += dropped;
  }
  /// Originate a PathReply/Data packet: broadcast it and become its arbiter.
  void originate_forwarded(net::PacketRef packet);
  void do_relay(std::uint64_t key, net::PacketRef copy, des::Time delay);
  void watch_as_arbiter(std::uint64_t key, const net::PacketRef& sent_copy);
  void send_netack(const net::PacketRef& acked);
  [[nodiscard]] core::ElectionContext gradient_context(
      const net::PacketRef& packet) const;
  RelayState& relay_state(std::uint64_t key);

  RoutelessConfig config_;
  core::HopGradientBackoff gradient_policy_;
  core::UniformBackoff discovery_policy_;
  core::SignalStrengthBackoff ssaf_policy_;
  core::RssiSpan rssi_span_;
  core::ElectionTable elections_;
  core::Arbiter arbiter_;
  des::Rng rng_;
  util::PooledUnorderedMap<std::uint32_t, TableEntry> table_;
  net::DuplicateCache seen_;
  net::DuplicateCache delivered_;
  util::PooledUnorderedMap<std::uint64_t, RelayState> relay_states_;
  std::deque<std::uint64_t> relay_state_order_;
  RouteWait wait_{*this};
  std::uint32_t next_sequence_ = 0;
  RoutelessStats stats_;
};

// Past this size every node's protocol would leave the pools for the heap.
static_assert(sizeof(RoutelessProtocol) <= util::kSizeClassMax);

}  // namespace rrnet::proto

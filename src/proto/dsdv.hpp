// DSDV — Destination-Sequenced Distance Vector (Perkins & Bhagwat [26]).
//
// The paper classifies wireless routing protocols as proactive (DSDV) or
// reactive (AODV, DSR); this is the proactive baseline. Every node
// periodically broadcasts its full routing table, stamped with per-
// destination sequence numbers (even = reachable, odd = broken) so newer
// information always displaces older regardless of metric. Routes exist
// before any data flows — zero discovery latency — at the cost of a
// constant control-traffic floor that the on-demand protocols avoid.
//
// Simplifications vs the full 1994 protocol, documented per DESIGN.md:
// full dumps only (no incremental updates) and no settling-time damping of
// triggered updates beyond a minimum spacing.
#pragma once

#include <cstdint>
#include <vector>

#include "des/rng.hpp"
#include "des/timer.hpp"
#include "net/node.hpp"
#include "proto/route_wait.hpp"
#include "util/pooled_containers.hpp"

namespace rrnet::proto {

struct DsdvConfig {
  des::Time update_interval = 3.0;      ///< periodic full-dump period
  des::Time triggered_min_gap = 1.0;    ///< damping for triggered updates
  std::uint16_t infinity_metric = 16;   ///< unreachable marker
  des::Time route_expiry = 12.0;        ///< drop entries not refreshed
  std::uint8_t ttl = 32;                ///< data-packet hop budget
  std::size_t pending_capacity = 16;    ///< packets buffered per unknown dest
};

struct DsdvStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t triggered_updates = 0;
  std::uint64_t entries_advertised = 0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t drops_no_route = 0;
  std::uint64_t link_breaks = 0;
  std::uint64_t pending_dropped = 0;
};

/// One advertised route in an update dump.
struct DsdvEntry {
  std::uint32_t destination = 0;
  std::uint16_t metric = 0;
  std::uint32_t seqno = 0;
};

/// Typed packet extension carrying a full table dump.
class RouteTableExtension final : public net::PacketExtension {
 public:
  static constexpr net::ExtensionKind kKind = net::ExtensionKind::RouteTable;
  explicit RouteTableExtension(std::vector<DsdvEntry> entries_in)
      : net::PacketExtension(kKind), entries(std::move(entries_in)) {}
  const std::vector<DsdvEntry> entries;
};

class DsdvProtocol final : public RouteWait::Owner {
 public:
  DsdvProtocol(net::Node& node, DsdvConfig config = {});

  void start() override;
  void on_packet(const net::PacketRef& packet, const phy::RxInfo& info,
                 bool for_us, std::uint32_t mac_src) override;
  void on_send_done(const net::PacketRef& packet, bool success,
                    std::uint32_t mac_dst) override;
  std::uint64_t send_data(std::uint32_t target,
                          std::uint32_t payload_bytes) override;
  const char* name() const noexcept override { return "dsdv"; }

  [[nodiscard]] bool has_route(std::uint32_t target) const;
  [[nodiscard]] std::uint32_t next_hop(std::uint32_t target) const;
  [[nodiscard]] std::uint16_t route_metric(std::uint32_t target) const;

  [[nodiscard]] const DsdvStats& dsdv_stats() const noexcept { return stats_; }

 private:
  struct Route {
    std::uint32_t next_hop = net::kNoNode;
    std::uint16_t metric = 0;
    std::uint32_t seqno = 0;
    des::Time refreshed = 0.0;
  };

  void broadcast_update(bool triggered);
  void schedule_periodic();
  void handle_update(const net::PacketRef& packet, std::uint32_t mac_src);
  void handle_data(const net::PacketRef& packet);
  void forward_data(net::PacketRef packet);
  void handle_link_break(std::uint32_t neighbor);
  void request_triggered_update();
  [[nodiscard]] bool route_usable(const Route& route) const;
  // No discovery: held packets wait for an update that brings the route.
  RouteWait::Limits wait_limits() const override {
    return {/*timeout=*/0.0, /*max_retries=*/0, config_.pending_capacity};
  }
  void send_held(std::uint32_t target,
                 std::vector<net::PacketRef> held) override;

  DsdvConfig config_;
  des::Rng rng_;
  des::Timer periodic_timer_;
  des::Timer triggered_timer_;
  util::PooledUnorderedMap<std::uint32_t, Route> routes_;
  RouteWait wait_{*this};
  std::uint32_t my_seqno_ = 0;  ///< kept even while reachable
  std::uint32_t next_sequence_ = 0;
  des::Time last_update_ = -1e9;
  bool triggered_pending_ = false;
  DsdvStats stats_;
};

}  // namespace rrnet::proto

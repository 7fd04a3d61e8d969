// AODV baseline (Perkins & Royer [28]) — the comparison protocol for
// Figures 3 and 4.
//
// On-demand route discovery: a flooded RREQ builds reverse routes toward
// the origin; the destination answers with a unicast RREP that builds the
// forward route hop by hop. Data travels as MAC unicasts along the stored
// next hops; an exhausted MAC retry budget signals a link break, which
// invalidates routes and propagates a RERR. Sources re-discover on demand.
//
// The RREQ flood is configurable to match the paper's §4.3 discussion:
//  * Blind   — "original flooding": each node rebroadcasts each copy it
//              hears from each distinct neighbor (broadcast storm);
//  * Dedup   — each node rebroadcasts each RREQ exactly once (the behavior
//              of mainstream AODV implementations);
//  * Suppress— dedup plus counter-based suppression (cancels the pending
//              rebroadcast after k overheard duplicates), the "optimized
//              discovery" whose route-quality cost §4.3 describes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/election.hpp"
#include "net/duplicate_cache.hpp"
#include "net/node.hpp"
#include "proto/route_wait.hpp"
#include "util/pooled_containers.hpp"

namespace rrnet::proto {

enum class RreqFlooding : std::uint8_t { Blind, Dedup, Suppress };

struct AodvConfig {
  RreqFlooding discovery = RreqFlooding::Blind;  ///< the paper's choice
  std::uint32_t suppress_threshold = 1;  ///< duplicates before suppression
  des::Time rreq_backoff = 10e-3;        ///< RREQ rebroadcast jitter
  std::uint8_t ttl = 32;
  /// Expanding-ring search: the first RREQ uses ring_start_ttl and each
  /// retry widens the ring by ring_increment (capped at ttl). Finds nearby
  /// destinations without flooding the whole network.
  bool expanding_ring = false;
  std::uint8_t ring_start_ttl = 2;
  std::uint8_t ring_increment = 3;
  des::Time discovery_timeout = 2.0;
  std::uint32_t max_discovery_retries = 3;
  std::size_t pending_capacity = 32;
};

struct AodvStats {
  std::uint64_t rreq_originated = 0;
  std::uint64_t rreq_relayed = 0;
  std::uint64_t rreq_suppressed = 0;
  std::uint64_t rrep_sent = 0;
  std::uint64_t rrep_forwarded = 0;
  std::uint64_t rerr_sent = 0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t link_breaks = 0;
  std::uint64_t drops_no_route = 0;
  std::uint64_t discovery_failures = 0;
  std::uint64_t pending_dropped = 0;
};

class AodvProtocol final : public RouteWait::Owner {
 public:
  AodvProtocol(net::Node& node, AodvConfig config = {});

  void on_packet(const net::PacketRef& packet, const phy::RxInfo& info,
                 bool for_us, std::uint32_t mac_src) override;
  void on_send_done(const net::PacketRef& packet, bool success,
                    std::uint32_t mac_dst) override;
  std::uint64_t send_data(std::uint32_t target,
                          std::uint32_t payload_bytes) override;
  const char* name() const noexcept override { return "aodv"; }
  void snapshot_metrics(obs::MetricRegistry& reg) const override;

  /// Routing-table introspection for tests.
  [[nodiscard]] bool has_route(std::uint32_t target) const;
  [[nodiscard]] std::uint32_t next_hop(std::uint32_t target) const;
  [[nodiscard]] std::uint32_t route_hops(std::uint32_t target) const;

  [[nodiscard]] const AodvStats& aodv_stats() const noexcept { return stats_; }

 private:
  struct Route {
    std::uint32_t next_hop = net::kNoNode;
    std::uint16_t hops = 0;
    std::uint32_t seqno = 0;
    bool valid = false;
  };
  void handle_rreq(const net::PacketRef& packet, std::uint32_t mac_src);
  void handle_rrep(const net::PacketRef& packet, std::uint32_t mac_src);
  void handle_rerr(const net::PacketRef& packet, std::uint32_t mac_src);
  void handle_data(const net::PacketRef& packet);
  void relay_rreq(const net::PacketRef& packet);
  void send_rrep(const net::PacketRef& rreq);
  void forward_data(net::PacketRef packet);
  void handle_link_break(std::uint32_t neighbor, const net::PacketRef& packet);
  void broadcast_rerr(std::uint32_t unreachable);
  /// Install/refresh a route if fresher (seqno) or equally fresh & shorter.
  void update_route(std::uint32_t target, std::uint32_t via,
                    std::uint16_t hops, std::uint32_t seqno);
  RouteWait::Limits wait_limits() const override {
    return {config_.discovery_timeout, config_.max_discovery_retries,
            config_.pending_capacity};
  }
  bool discover(std::uint32_t target, std::uint32_t retries) override;
  bool route_known(std::uint32_t target) const override {
    return has_route(target);
  }
  void send_held(std::uint32_t target,
                 std::vector<net::PacketRef> held) override;
  void gave_up(std::size_t dropped) override {
    ++stats_.discovery_failures;
    stats_.pending_dropped += dropped;
  }

  AodvConfig config_;
  des::Rng rng_;
  core::UniformBackoff rreq_policy_;
  core::ElectionTable rreq_elections_;  ///< pending RREQ rebroadcasts
  util::PooledUnorderedMap<std::uint32_t, Route> routes_;
  net::DuplicateCache rreq_seen_;
  util::PooledUnorderedSet<std::uint64_t> rreq_copy_seen_;  ///< Blind mode
  net::DuplicateCache rerr_seen_;
  net::DuplicateCache delivered_;
  RouteWait wait_{*this};
  std::uint32_t my_seqno_ = 0;
  std::uint32_t next_rreq_id_ = 0;
  std::uint32_t next_sequence_ = 0;
  AodvStats stats_;
};

}  // namespace rrnet::proto

// DSR — Dynamic Source Routing (Johnson & Maltz [27]).
//
// The second reactive protocol the paper's taxonomy names ("reactive (or
// on-demand), such as AODV and DSR"). Route requests flood outward
// accumulating the node list they traversed; the target returns that list
// in a route reply, and every data packet then carries its complete source
// route — intermediate nodes keep no per-flow state at all (they do keep a
// route *cache* gleaned from the routes that pass by).
//
// Simplifications vs the full protocol, noted per DESIGN.md: no promiscuous
// route shortening, no packet salvaging at intermediate nodes (a break is
// reported to the source, which re-discovers), and route replies travel the
// reversed discovered route (bidirectional links, as the paper assumes).
#pragma once

#include <cstdint>
#include <vector>

#include "des/rng.hpp"
#include "net/duplicate_cache.hpp"
#include "net/node.hpp"
#include "proto/route_wait.hpp"
#include "util/pooled_containers.hpp"

namespace rrnet::proto {

struct DsrConfig {
  des::Time rreq_jitter = 10e-3;   ///< route-request rebroadcast jitter
  std::uint8_t ttl = 32;
  des::Time discovery_timeout = 2.0;
  std::uint32_t max_discovery_retries = 3;
  std::size_t pending_capacity = 32;
  std::size_t cache_capacity = 64;  ///< cached routes per node
};

struct DsrStats {
  std::uint64_t rreq_originated = 0;
  std::uint64_t rreq_relayed = 0;
  std::uint64_t rrep_sent = 0;
  std::uint64_t rrep_forwarded = 0;
  std::uint64_t rerr_sent = 0;
  std::uint64_t cache_hits = 0;     ///< send_data answered from the cache
  std::uint64_t cache_evictions = 0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t link_breaks = 0;
  std::uint64_t drops_bad_route = 0;
  std::uint64_t discovery_failures = 0;
  std::uint64_t pending_dropped = 0;
};

/// A complete node list from source to destination (inclusive).
using SourceRoute = std::vector<std::uint32_t>;

/// Typed packet extension carrying a source route (immutable once attached;
/// per-hop route growth rebuilds the packet via to_init + make_packet).
class SourceRouteExtension final : public net::PacketExtension {
 public:
  static constexpr net::ExtensionKind kKind = net::ExtensionKind::SourceRoute;
  explicit SourceRouteExtension(SourceRoute route_in)
      : net::PacketExtension(kKind), route(std::move(route_in)) {}
  const SourceRoute route;
};

class DsrProtocol final : public RouteWait::Owner {
 public:
  DsrProtocol(net::Node& node, DsrConfig config = {});

  void on_packet(const net::PacketRef& packet, const phy::RxInfo& info,
                 bool for_us, std::uint32_t mac_src) override;
  void on_send_done(const net::PacketRef& packet, bool success,
                    std::uint32_t mac_dst) override;
  std::uint64_t send_data(std::uint32_t target,
                          std::uint32_t payload_bytes) override;
  const char* name() const noexcept override { return "dsr"; }
  void snapshot_metrics(obs::MetricRegistry& reg) const override;

  /// Route-cache introspection for tests.
  [[nodiscard]] bool has_cached_route(std::uint32_t target) const;
  [[nodiscard]] const SourceRoute& cached_route(std::uint32_t target) const;

  [[nodiscard]] const DsrStats& dsr_stats() const noexcept { return stats_; }

 private:
  void handle_rreq(const net::PacketRef& packet);
  void handle_rrep(const net::PacketRef& packet);
  void handle_rerr(const net::PacketRef& packet);
  void handle_data(const net::PacketRef& packet);
  RouteWait::Limits wait_limits() const override {
    return {config_.discovery_timeout, config_.max_discovery_retries,
            config_.pending_capacity};
  }
  bool discover(std::uint32_t target, std::uint32_t retries) override;
  bool route_known(std::uint32_t target) const override {
    return has_cached_route(target);
  }
  void send_held(std::uint32_t target,
                 std::vector<net::PacketRef> held) override;
  void gave_up(std::size_t dropped) override {
    ++stats_.discovery_failures;
    stats_.pending_dropped += dropped;
  }
  /// Send a source-routed packet to the next hop on its route.
  void forward_on_route(net::PacketRef packet);
  void cache_route(const SourceRoute& route);
  void purge_link(std::uint32_t from, std::uint32_t to);
  [[nodiscard]] static const SourceRoute& route_of(const net::PacketRef& packet);

  DsrConfig config_;
  des::Rng rng_;
  util::PooledUnorderedMap<std::uint32_t, SourceRoute> cache_;
  std::vector<std::uint32_t> cache_order_;  ///< FIFO eviction
  net::DuplicateCache rreq_seen_;
  net::DuplicateCache rerr_seen_;
  net::DuplicateCache delivered_;
  RouteWait wait_{*this};
  std::uint32_t next_rreq_id_ = 0;
  std::uint32_t next_sequence_ = 0;
  DsrStats stats_;
};

}  // namespace rrnet::proto

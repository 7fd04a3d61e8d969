#include "proto/dsr.hpp"

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

namespace {
/// Per-entry on-air bytes of a source route.
constexpr std::uint32_t kRouteEntryBytes = 4;

std::uint64_t rreq_key(const net::PacketRef& packet) {
  return (static_cast<std::uint64_t>(packet.origin()) << 32) | packet.rreq_id();
}

}  // namespace

DsrProtocol::DsrProtocol(net::Node& node, DsrConfig config)
    : RouteWait::Owner(node), config_(config), rng_(node.rng().fork("dsr")) {
  RRNET_EXPECTS(config.cache_capacity > 0);
}

const SourceRoute& DsrProtocol::route_of(const net::PacketRef& packet) {
  const auto* ext = packet.extension_as<SourceRouteExtension>();
  RRNET_ASSERT(ext != nullptr);
  return ext->route;
}

bool DsrProtocol::has_cached_route(std::uint32_t target) const {
  return cache_.count(target) > 0;
}

const SourceRoute& DsrProtocol::cached_route(std::uint32_t target) const {
  const auto it = cache_.find(target);
  RRNET_EXPECTS(it != cache_.end());
  return it->second;
}

void DsrProtocol::cache_route(const SourceRoute& route) {
  // Cache the sub-route from us to every node after us on the route, and
  // (bidirectional links) the reversed sub-route to every node before us.
  const auto self = std::find(route.begin(), route.end(), node().id());
  if (self == route.end()) return;
  auto remember = [this](std::uint32_t dest, SourceRoute sub) {
    if (dest == node().id() || sub.size() < 2) return;
    auto [it, inserted] = cache_.try_emplace(dest);
    if (!inserted && it->second.size() <= sub.size()) return;  // keep shorter
    it->second = std::move(sub);
    if (inserted) {
      cache_order_.push_back(dest);
      if (cache_order_.size() > config_.cache_capacity) {
        cache_.erase(cache_order_.front());
        cache_order_.erase(cache_order_.begin());
        ++stats_.cache_evictions;
      }
    }
  };
  remember(route.back(), SourceRoute(self, route.end()));
  SourceRoute reversed(route.begin(), self + 1);
  std::reverse(reversed.begin(), reversed.end());
  remember(route.front(), std::move(reversed));
}

std::uint64_t DsrProtocol::send_data(std::uint32_t target,
                                     std::uint32_t payload_bytes) {
  RRNET_EXPECTS(target != node().id());
  net::PacketInit init;
  init.type = net::PacketType::Data;
  init.origin = node().id();
  init.target = target;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.ttl = config_.ttl;
  init.payload_bytes = payload_bytes;
  init.created_at = node().scheduler().now();
  const std::uint64_t uid = init.uid;

  const auto it = cache_.find(target);
  if (it == cache_.end()) {
    if (!wait_.hold(target, std::move(init))) ++stats_.pending_dropped;
    return uid;
  }
  ++stats_.cache_hits;
  ++stats_.data_originated;
  init.extension = net::make_extension<SourceRouteExtension>(it->second);
  init.payload_bytes +=
      static_cast<std::uint32_t>(it->second.size()) * kRouteEntryBytes;
  init.actual_hops = 0;  // index of the current holder on the route
  forward_on_route(net::make_packet(std::move(init)));
  return uid;
}

void DsrProtocol::forward_on_route(net::PacketRef packet) {
  const SourceRoute& route = route_of(packet);
  const std::size_t index = packet.actual_hops();
  if (index + 1 >= route.size() || route[index] != node().id()) {
    ++stats_.drops_bad_route;
    return;
  }
  packet.hop().prev_hop = node().id();
  if (packet.origin() != node().id() &&
      packet.type() == net::PacketType::Data) {
    ++stats_.data_forwarded;
  }
  node().send_packet(packet, route[index + 1], 0.0);
}

bool DsrProtocol::discover(std::uint32_t target, std::uint32_t retries) {
  if (retries == 0) ++stats_.rreq_originated;  // a retry is not a new one
  net::PacketInit init;
  init.type = net::PacketType::RouteRequest;
  init.origin = node().id();
  init.target = target;
  init.rreq_id = next_rreq_id_++;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.ttl = config_.ttl;
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  init.extension =
      net::make_extension<SourceRouteExtension>(SourceRoute{node().id()});
  init.payload_bytes = kRouteEntryBytes;
  net::PacketRef rreq = net::make_packet(std::move(init));
  rreq_seen_.observe(rreq_key(rreq));
  node().send_packet(rreq, mac::kBroadcastAddress, 0.0);
  return true;
}

void DsrProtocol::send_held(std::uint32_t target,
                            std::vector<net::PacketRef> held) {
  const auto route_it = cache_.find(target);
  RRNET_ASSERT(route_it != cache_.end());
  // A copy: a send refused at once (full MAC queue) breaks the link and
  // purges the cached route before the next packet is built.
  const SourceRoute route = route_it->second;
  for (net::PacketRef& packet : held) {
    ++stats_.data_originated;
    // Attaching the discovered route changes the immutable header: rebuild.
    net::PacketInit init = packet.to_init();
    init.extension = net::make_extension<SourceRouteExtension>(route);
    init.payload_bytes +=
        static_cast<std::uint32_t>(route.size()) * kRouteEntryBytes;
    init.actual_hops = 0;
    forward_on_route(net::make_packet(std::move(init)));
  }
}

void DsrProtocol::handle_rreq(const net::PacketRef& packet) {
  if (packet.origin() == node().id()) return;
  const SourceRoute& accumulated = route_of(packet);
  if (std::find(accumulated.begin(), accumulated.end(), node().id()) !=
      accumulated.end()) {
    return;  // loop
  }
  if (!rreq_seen_.observe(rreq_key(packet))) return;

  SourceRoute extended = accumulated;
  extended.push_back(node().id());
  cache_route(extended);

  if (packet.target() == node().id()) {
    // Full route discovered: reply along the reversed route.
    ++stats_.rrep_sent;
    net::PacketInit init;
    init.type = net::PacketType::RouteReply;
    init.origin = node().id();
    init.target = packet.origin();
    init.sequence = next_sequence_++;
    init.uid = node().next_packet_uid();
    init.ttl = config_.ttl;
    init.created_at = node().scheduler().now();
    SourceRoute reversed = extended;
    std::reverse(reversed.begin(), reversed.end());
    init.extension =
        net::make_extension<SourceRouteExtension>(std::move(reversed));
    init.payload_bytes =
        static_cast<std::uint32_t>(extended.size()) * kRouteEntryBytes;
    init.actual_hops = 0;
    forward_on_route(net::make_packet(std::move(init)));
    return;
  }
  if (packet.ttl() == 0) return;
  // The accumulated route is part of the immutable header: the relayed
  // packet semantically IS a new packet — rebuild it.
  net::PacketInit init = packet.to_init();
  init.ttl = static_cast<std::uint8_t>(packet.ttl() - 1);
  init.prev_hop = node().id();
  init.extension = net::make_extension<SourceRouteExtension>(std::move(extended));
  init.payload_bytes += kRouteEntryBytes;
  net::PacketRef copy = net::make_packet(std::move(init));
  const des::Time delay = rng_.uniform(0.0, config_.rreq_jitter);
  node().scheduler().schedule_in(delay, [this, copy, delay]() {
    ++stats_.rreq_relayed;
    node().send_packet(copy, mac::kBroadcastAddress, delay);
  });
}

void DsrProtocol::handle_rrep(const net::PacketRef& packet) {
  cache_route(route_of(packet));
  if (packet.target() == node().id()) {
    // The reply's route is [destination ... us]; the forward route to the
    // destination was cached by cache_route above. Release waiting data.
    wait_.release(packet.origin());
    return;
  }
  net::PacketRef copy = packet;
  copy.hop().actual_hops += 1;
  ++stats_.rrep_forwarded;
  forward_on_route(std::move(copy));
}

void DsrProtocol::handle_data(const net::PacketRef& packet) {
  cache_route(route_of(packet));
  if (packet.target() == node().id()) {
    if (delivered_.observe(packet.flood_key())) {
      ++stats_.data_delivered;
      net::PacketRef delivered = packet;
      // actual_hops held the route index; at the destination that index is
      // the number of hops traveled.
      delivered.hop().actual_hops =
          static_cast<std::uint16_t>(route_of(packet).size() - 1);
      node().deliver_to_app(delivered);
    }
    return;
  }
  net::PacketRef copy = packet;
  copy.hop().actual_hops += 1;
  forward_on_route(std::move(copy));
}

void DsrProtocol::purge_link(std::uint32_t from, std::uint32_t to) {
  for (auto it = cache_.begin(); it != cache_.end();) {
    const SourceRoute& route = it->second;
    bool broken = false;
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      if ((route[i] == from && route[i + 1] == to) ||
          (route[i] == to && route[i + 1] == from)) {
        broken = true;
        break;
      }
    }
    if (broken) {
      cache_order_.erase(std::find(cache_order_.begin(), cache_order_.end(),
                                   it->first));
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

void DsrProtocol::handle_rerr(const net::PacketRef& packet) {
  if (!rerr_seen_.observe(packet.flood_key())) return;
  purge_link(packet.prev_hop(), packet.unreachable());
}

void DsrProtocol::on_send_done(const net::PacketRef& packet, bool success,
                               std::uint32_t mac_dst) {
  if (success || mac_dst == mac::kBroadcastAddress) return;
  ++stats_.link_breaks;
  purge_link(node().id(), mac_dst);
  // Tell the neighborhood which link died; everyone drops routes using it.
  net::PacketInit init;
  init.type = net::PacketType::RouteError;
  init.origin = node().id();
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.prev_hop = node().id();  // the broken link is (prev_hop, unreachable)
  init.unreachable = mac_dst;
  init.created_at = node().scheduler().now();
  net::PacketRef rerr = net::make_packet(std::move(init));
  rerr_seen_.observe(rerr.flood_key());
  ++stats_.rerr_sent;
  node().send_packet(rerr, mac::kBroadcastAddress, 0.0);
  // Our own packet: requeue and rediscover; a forwarded one is dropped
  // (no salvaging in this implementation).
  if (packet.type() == net::PacketType::Data &&
      packet.origin() == node().id()) {
    // Dropping the stale route changes the immutable header: rebuild the
    // packet without the extension (it keeps its original timestamp).
    net::PacketInit requeued = packet.to_init();
    requeued.payload_bytes -= static_cast<std::uint32_t>(
        route_of(packet).size() * kRouteEntryBytes);
    requeued.extension.reset();
    requeued.actual_hops = 0;
    if (!wait_.hold(packet.target(), std::move(requeued))) {
      ++stats_.pending_dropped;
    }
  } else if (packet.type() == net::PacketType::Data) {
    ++stats_.drops_bad_route;
  }
}

void DsrProtocol::on_packet(const net::PacketRef& packet,
                            const phy::RxInfo& /*info*/, bool for_us,
                            std::uint32_t /*mac_src*/) {
  if (!for_us) return;
  switch (packet.type()) {
    case net::PacketType::RouteRequest:
      handle_rreq(packet);
      return;
    case net::PacketType::RouteReply:
      handle_rrep(packet);
      return;
    case net::PacketType::RouteError:
      handle_rerr(packet);
      return;
    case net::PacketType::Data:
      handle_data(packet);
      return;
    default:
      return;
  }
}


void DsrProtocol::snapshot_metrics(obs::MetricRegistry& reg) const {
  net::snapshot_metrics(rreq_seen_, reg);
  net::snapshot_metrics(rerr_seen_, reg);
  net::snapshot_metrics(delivered_, reg);
}

}  // namespace rrnet::proto

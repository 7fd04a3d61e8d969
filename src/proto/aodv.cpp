#include "proto/aodv.hpp"

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

namespace {
/// Dedup key for a route request: (origin, rreq_id).
std::uint64_t rreq_key(const net::PacketRef& packet) {
  return (static_cast<std::uint64_t>(packet.origin()) << 32) | packet.rreq_id();
}
}  // namespace

AodvProtocol::AodvProtocol(net::Node& node, AodvConfig config)
    : RouteWait::Owner(node),
      config_(config),
      rng_(node.rng().fork("aodv")),
      rreq_policy_(config.rreq_backoff),
      rreq_elections_(node.scheduler()) {}

bool AodvProtocol::has_route(std::uint32_t target) const {
  const auto it = routes_.find(target);
  return it != routes_.end() && it->second.valid;
}

std::uint32_t AodvProtocol::next_hop(std::uint32_t target) const {
  const auto it = routes_.find(target);
  RRNET_EXPECTS(it != routes_.end() && it->second.valid);
  return it->second.next_hop;
}

std::uint32_t AodvProtocol::route_hops(std::uint32_t target) const {
  const auto it = routes_.find(target);
  RRNET_EXPECTS(it != routes_.end() && it->second.valid);
  return it->second.hops;
}

void AodvProtocol::update_route(std::uint32_t target, std::uint32_t via,
                                std::uint16_t hops, std::uint32_t seqno) {
  if (target == node().id()) return;
  Route& route = routes_[target];
  const bool fresher = seqno > route.seqno;
  const bool equal_and_better =
      seqno == route.seqno && (!route.valid || hops < route.hops);
  if (!route.valid || fresher || equal_and_better) {
    route.next_hop = via;
    route.hops = hops;
    route.seqno = std::max(route.seqno, seqno);
    route.valid = true;
  }
}

std::uint64_t AodvProtocol::send_data(std::uint32_t target,
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
  net::PacketRef packet = net::make_packet(std::move(init));

  if (!has_route(target)) {
    if (!wait_.hold(target, std::move(packet))) ++stats_.pending_dropped;
    return uid;
  }
  ++stats_.data_originated;
  forward_data(std::move(packet));
  return uid;
}

void AodvProtocol::forward_data(net::PacketRef packet) {
  if (packet.ttl() == 0) {
    ++stats_.drops_no_route;
    return;
  }
  const auto it = routes_.find(packet.target());
  if (it == routes_.end() || !it->second.valid) {
    if (packet.origin() == node().id()) {
      // Route vanished between queueing and sending: rediscover.
      const std::uint32_t target = packet.target();
      if (!wait_.hold(target, std::move(packet))) ++stats_.pending_dropped;
    } else {
      ++stats_.drops_no_route;
      broadcast_rerr(packet.target());
    }
    return;
  }
  packet.hop().ttl -= 1;
  packet.hop().prev_hop = node().id();
  if (packet.origin() != node().id()) ++stats_.data_forwarded;
  node().send_packet(packet, it->second.next_hop, 0.0);
}

bool AodvProtocol::discover(std::uint32_t target, std::uint32_t retries) {
  if (retries == 0) ++stats_.rreq_originated;  // a retry is not a new one
  std::uint8_t ring_ttl = config_.ttl;
  if (config_.expanding_ring) {
    const std::uint32_t widened =
        config_.ring_start_ttl + config_.ring_increment * retries;
    ring_ttl = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(widened, config_.ttl));
  }
  net::PacketInit init;
  init.type = net::PacketType::RouteRequest;
  init.origin = node().id();
  init.target = target;
  init.rreq_id = next_rreq_id_++;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.origin_seqno = ++my_seqno_;
  const auto rit = routes_.find(target);
  init.target_seqno = rit == routes_.end() ? 0 : rit->second.seqno;
  init.actual_hops = 0;
  init.ttl = ring_ttl;
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  net::PacketRef rreq = net::make_packet(std::move(init));
  rreq_seen_.observe(rreq_key(rreq));
  node().send_packet(rreq, mac::kBroadcastAddress, 0.0);
  return true;
}

void AodvProtocol::send_held(std::uint32_t /*target*/,
                             std::vector<net::PacketRef> held) {
  for (net::PacketRef& packet : held) {
    ++stats_.data_originated;
    forward_data(std::move(packet));
  }
}

void AodvProtocol::handle_rreq(const net::PacketRef& packet,
                               std::uint32_t mac_src) {
  if (packet.origin() == node().id()) return;  // our own flood echoed back
  const std::uint16_t hops_to_me =
      static_cast<std::uint16_t>(packet.actual_hops() + 1);
  // Reverse route toward the origin.
  update_route(packet.origin(), mac_src, hops_to_me, packet.origin_seqno());

  const std::uint64_t key = rreq_key(packet);
  const bool is_new = rreq_seen_.observe(key);

  if (packet.target() == node().id()) {
    if (is_new) send_rrep(packet);
    return;
  }
  if (packet.ttl() == 0) return;

  switch (config_.discovery) {
    case RreqFlooding::Blind: {
      const std::uint64_t copy_key =
          key ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(mac_src) + 1));
      if (!rreq_copy_seen_.insert(copy_key).second) return;
      relay_rreq(packet);
      return;
    }
    case RreqFlooding::Dedup: {
      if (is_new) relay_rreq(packet);
      return;
    }
    case RreqFlooding::Suppress: {
      if (is_new) {
        core::ElectionContext ctx;
        rreq_elections_.arm(key, rreq_policy_, ctx, rng_,
                            [this, copy = packet](des::Time delay) {
                              net::PacketRef relay = copy;
                              relay.hop().ttl -= 1;
                              relay.hop().actual_hops += 1;
                              relay.hop().prev_hop = node().id();
                              ++stats_.rreq_relayed;
                              node().send_packet(relay, mac::kBroadcastAddress,
                                                 delay);
                            });
      } else if (rreq_seen_.count(key) > config_.suppress_threshold) {
        if (rreq_elections_.cancel(key, core::CancelReason::DuplicateHeard)) {
          ++stats_.rreq_suppressed;
        }
      }
      return;
    }
  }
}

void AodvProtocol::relay_rreq(const net::PacketRef& packet) {
  net::PacketRef copy = packet;
  copy.hop().ttl -= 1;
  copy.hop().actual_hops += 1;
  copy.hop().prev_hop = node().id();
  const des::Time delay = rng_.uniform(0.0, config_.rreq_backoff);
  node().scheduler().schedule_in(delay, [this, copy, delay]() {
    ++stats_.rreq_relayed;
    node().send_packet(copy, mac::kBroadcastAddress, delay);
  });
}

void AodvProtocol::send_rrep(const net::PacketRef& rreq) {
  const auto it = routes_.find(rreq.origin());
  RRNET_ASSERT(it != routes_.end() && it->second.valid);
  net::PacketInit init;
  init.type = net::PacketType::RouteReply;
  init.origin = node().id();      // the destination of the data flow
  init.target = rreq.origin();    // the RREQ originator
  init.rreq_id = rreq.rreq_id();
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.target_seqno = std::max(my_seqno_ + 1, rreq.target_seqno());
  my_seqno_ = init.target_seqno;
  init.actual_hops = 0;
  init.ttl = config_.ttl;
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  ++stats_.rrep_sent;
  node().send_packet(net::make_packet(std::move(init)), it->second.next_hop,
                     0.0);
}

void AodvProtocol::handle_rrep(const net::PacketRef& packet,
                               std::uint32_t mac_src) {
  const std::uint16_t hops_to_me =
      static_cast<std::uint16_t>(packet.actual_hops() + 1);
  // Forward route toward the destination (the RREP's origin).
  update_route(packet.origin(), mac_src, hops_to_me, packet.target_seqno());

  if (packet.target() == node().id()) {
    wait_.release(packet.origin());
    return;
  }
  const auto it = routes_.find(packet.target());
  if (it == routes_.end() || !it->second.valid) {
    ++stats_.drops_no_route;
    return;
  }
  if (packet.ttl() == 0) return;
  net::PacketRef copy = packet;
  copy.hop().ttl -= 1;
  copy.hop().actual_hops += 1;
  copy.hop().prev_hop = node().id();
  ++stats_.rrep_forwarded;
  node().send_packet(copy, it->second.next_hop, 0.0);
}

void AodvProtocol::broadcast_rerr(std::uint32_t unreachable) {
  net::PacketInit init;
  init.type = net::PacketType::RouteError;
  init.origin = node().id();
  init.unreachable = unreachable;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.ttl = 1;  // propagated hop-by-hop by affected nodes only
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  net::PacketRef rerr = net::make_packet(std::move(init));
  rerr_seen_.observe(rerr.flood_key());
  ++stats_.rerr_sent;
  node().send_packet(rerr, mac::kBroadcastAddress, 0.0);
}

void AodvProtocol::handle_rerr(const net::PacketRef& packet,
                               std::uint32_t mac_src) {
  if (!rerr_seen_.observe(packet.flood_key())) return;
  const auto it = routes_.find(packet.unreachable());
  if (it != routes_.end() && it->second.valid &&
      it->second.next_hop == mac_src) {
    it->second.valid = false;
    broadcast_rerr(packet.unreachable());
  }
}

void AodvProtocol::handle_data(const net::PacketRef& packet) {
  if (packet.target() == node().id()) {
    if (delivered_.observe(packet.flood_key())) {
      net::PacketRef delivered = packet;
      delivered.hop().actual_hops =
          static_cast<std::uint16_t>(packet.actual_hops() + 1);
      ++stats_.data_delivered;
      node().deliver_to_app(delivered);
    }
    return;
  }
  net::PacketRef copy = packet;
  copy.hop().actual_hops += 1;
  forward_data(std::move(copy));
}

void AodvProtocol::handle_link_break(std::uint32_t neighbor,
                                     const net::PacketRef& packet) {
  ++stats_.link_breaks;
  for (auto& [dest, route] : routes_) {
    if (route.valid && route.next_hop == neighbor) {
      route.valid = false;
      broadcast_rerr(dest);
    }
  }
  if (packet.type() == net::PacketType::Data) {
    if (packet.origin() == node().id()) {
      // Re-queue and rediscover; the packet keeps its original timestamp.
      if (!wait_.hold(packet.target(), packet)) ++stats_.pending_dropped;
    } else {
      ++stats_.drops_no_route;
    }
  }
}

void AodvProtocol::on_send_done(const net::PacketRef& packet, bool success,
                                std::uint32_t mac_dst) {
  if (success || mac_dst == mac::kBroadcastAddress) return;
  handle_link_break(mac_dst, packet);
}

void AodvProtocol::on_packet(const net::PacketRef& packet,
                             const phy::RxInfo& /*info*/, bool for_us,
                             std::uint32_t mac_src) {
  if (!for_us) return;  // AODV does not listen promiscuously
  switch (packet.type()) {
    case net::PacketType::RouteRequest:
      handle_rreq(packet, mac_src);
      return;
    case net::PacketType::RouteReply:
      handle_rrep(packet, mac_src);
      return;
    case net::PacketType::RouteError:
      handle_rerr(packet, mac_src);
      return;
    case net::PacketType::Data:
      handle_data(packet);
      return;
    default:
      return;
  }
}


void AodvProtocol::snapshot_metrics(obs::MetricRegistry& reg) const {
  core::snapshot_metrics(rreq_elections_.stats(), reg);
  net::snapshot_metrics(rreq_seen_, reg);
  net::snapshot_metrics(rerr_seen_, reg);
  net::snapshot_metrics(delivered_, reg);
}

}  // namespace rrnet::proto

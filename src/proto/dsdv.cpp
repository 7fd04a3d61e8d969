#include "proto/dsdv.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

namespace {
/// On-air bytes per advertised route (dest + metric + seqno).
constexpr std::uint32_t kEntryBytes = 10;
}  // namespace

DsdvProtocol::DsdvProtocol(net::Node& node, DsdvConfig config)
    : RouteWait::Owner(node),
      config_(config),
      rng_(node.rng().fork("dsdv")),
      periodic_timer_(node.scheduler()),
      triggered_timer_(node.scheduler()) {
  RRNET_EXPECTS(config.update_interval > 0.0);
  RRNET_EXPECTS(config.infinity_metric > 1);
}

void DsdvProtocol::start() {
  // Stagger first dumps so the network does not synchronize its beacons.
  periodic_timer_.start(rng_.uniform(0.0, config_.update_interval),
                        [this]() { schedule_periodic(); });
}

void DsdvProtocol::schedule_periodic() {
  broadcast_update(/*triggered=*/false);
  periodic_timer_.start(
      config_.update_interval * rng_.uniform(0.9, 1.1),
      [this]() { schedule_periodic(); });
}

void DsdvProtocol::broadcast_update(bool triggered) {
  const des::Time now = node().scheduler().now();
  last_update_ = now;
  triggered_pending_ = false;
  my_seqno_ += 2;  // stays even: this node is alive

  std::vector<DsdvEntry> entries;
  entries.push_back(DsdvEntry{node().id(), 0, my_seqno_});
  for (auto it = routes_.begin(); it != routes_.end();) {
    Route& route = it->second;
    if (now - route.refreshed > config_.route_expiry &&
        route.metric < config_.infinity_metric) {
      // Stale: advertise as broken once (odd seqno), then let it age out.
      route.metric = config_.infinity_metric;
      route.seqno += 1;
    }
    entries.push_back(DsdvEntry{it->first, route.metric, route.seqno});
    ++it;
  }

  net::PacketInit init;
  init.type = net::PacketType::RouteUpdate;
  init.origin = node().id();
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.payload_bytes =
      static_cast<std::uint32_t>(entries.size()) * kEntryBytes;
  init.created_at = now;
  init.prev_hop = node().id();
  ++stats_.updates_sent;
  if (triggered) ++stats_.triggered_updates;
  stats_.entries_advertised += entries.size();
  init.extension = net::make_extension<RouteTableExtension>(std::move(entries));
  node().send_packet(net::make_packet(std::move(init)),
                     mac::kBroadcastAddress, 0.0);
}

void DsdvProtocol::request_triggered_update() {
  if (triggered_pending_) return;
  const des::Time now = node().scheduler().now();
  const des::Time earliest = last_update_ + config_.triggered_min_gap;
  triggered_pending_ = true;
  triggered_timer_.start(std::max(0.0, earliest - now) +
                             rng_.uniform(0.0, 0.02),
                         [this]() { broadcast_update(/*triggered=*/true); });
}

bool DsdvProtocol::route_usable(const Route& route) const {
  return route.metric < config_.infinity_metric &&
         route.next_hop != net::kNoNode;
}

bool DsdvProtocol::has_route(std::uint32_t target) const {
  const auto it = routes_.find(target);
  return it != routes_.end() && route_usable(it->second);
}

std::uint32_t DsdvProtocol::next_hop(std::uint32_t target) const {
  const auto it = routes_.find(target);
  RRNET_EXPECTS(it != routes_.end() && route_usable(it->second));
  return it->second.next_hop;
}

std::uint16_t DsdvProtocol::route_metric(std::uint32_t target) const {
  const auto it = routes_.find(target);
  RRNET_EXPECTS(it != routes_.end());
  return it->second.metric;
}

void DsdvProtocol::handle_update(const net::PacketRef& packet,
                                 std::uint32_t mac_src) {
  const auto* ext = packet.extension_as<RouteTableExtension>();
  RRNET_ASSERT(ext != nullptr);
  const std::vector<DsdvEntry>& entries = ext->entries;
  const des::Time now = node().scheduler().now();
  bool significant_change = false;
  for (const DsdvEntry& entry : entries) {
    if (entry.destination == node().id()) continue;
    const std::uint16_t metric =
        entry.metric >= config_.infinity_metric
            ? config_.infinity_metric
            : static_cast<std::uint16_t>(entry.metric + 1);
    const bool is_new_destination = routes_.count(entry.destination) == 0;
    Route& route = routes_[entry.destination];
    const bool newer = entry.seqno > route.seqno;
    const bool same_but_better =
        entry.seqno == route.seqno && metric < route.metric;
    if (route.next_hop == net::kNoNode || newer || same_but_better) {
      const bool was_usable = route_usable(route);
      route.next_hop = metric >= config_.infinity_metric ? route.next_hop
                                                         : mac_src;
      route.metric = metric;
      route.seqno = entry.seqno;
      route.refreshed = now;
      // Real DSDV damps triggered updates to *significant* events: a
      // destination appearing, breaking, or recovering. Metric churn from
      // neighbors racing to deliver each round's fresh sequence number is
      // left to the periodic dump, or the network drowns in updates.
      if (route_usable(route) != was_usable || is_new_destination) {
        significant_change = true;
      }
      if (route_usable(route)) wait_.release(entry.destination);
    } else if (entry.seqno == route.seqno && route.next_hop == mac_src) {
      route.refreshed = now;  // our chosen hop re-confirmed the route
    }
  }
  if (significant_change) request_triggered_update();
}

std::uint64_t DsdvProtocol::send_data(std::uint32_t target,
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
    // Buffer briefly: the next periodic update may bring the route.
    if (!wait_.hold(target, std::move(packet))) ++stats_.pending_dropped;
    return uid;
  }
  ++stats_.data_originated;
  forward_data(std::move(packet));
  return uid;
}

void DsdvProtocol::send_held(std::uint32_t /*target*/,
                             std::vector<net::PacketRef> held) {
  for (net::PacketRef& packet : held) {
    ++stats_.data_originated;
    forward_data(std::move(packet));
  }
}

void DsdvProtocol::forward_data(net::PacketRef packet) {
  if (packet.ttl() == 0 || !has_route(packet.target())) {
    ++stats_.drops_no_route;
    return;
  }
  packet.hop().ttl -= 1;
  packet.hop().prev_hop = node().id();
  if (packet.origin() != node().id()) ++stats_.data_forwarded;
  node().send_packet(packet, next_hop(packet.target()), 0.0);
}

void DsdvProtocol::handle_data(const net::PacketRef& packet) {
  if (packet.target() == node().id()) {
    ++stats_.data_delivered;
    net::PacketRef delivered = packet;
    delivered.hop().actual_hops =
        static_cast<std::uint16_t>(packet.actual_hops() + 1);
    node().deliver_to_app(delivered);
    return;
  }
  net::PacketRef copy = packet;
  copy.hop().actual_hops += 1;
  forward_data(std::move(copy));
}

void DsdvProtocol::handle_link_break(std::uint32_t neighbor) {
  ++stats_.link_breaks;
  bool changed = false;
  for (auto& [dest, route] : routes_) {
    if (route.next_hop == neighbor && route_usable(route)) {
      route.metric = config_.infinity_metric;
      route.seqno += 1;  // odd: broken, wins over the stale even seqno
      changed = true;
    }
  }
  if (changed) request_triggered_update();
}

void DsdvProtocol::on_send_done(const net::PacketRef& packet, bool success,
                                std::uint32_t mac_dst) {
  (void)packet;
  if (success || mac_dst == mac::kBroadcastAddress) return;
  handle_link_break(mac_dst);
}

void DsdvProtocol::on_packet(const net::PacketRef& packet,
                             const phy::RxInfo& /*info*/, bool for_us,
                             std::uint32_t mac_src) {
  if (!for_us) return;
  switch (packet.type()) {
    case net::PacketType::RouteUpdate:
      handle_update(packet, mac_src);
      return;
    case net::PacketType::Data:
      handle_data(packet);
      return;
    default:
      return;
  }
}

}  // namespace rrnet::proto

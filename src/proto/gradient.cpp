#include "proto/gradient.hpp"

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

GradientProtocol::GradientProtocol(net::Node& node, GradientConfig config)
    : RouteWait::Owner(node),
      config_(config),
      rng_(node.rng().fork("gradient")) {}

void GradientProtocol::update_table(std::uint32_t origin,
                                    std::uint32_t sequence,
                                    std::uint16_t hops_to_me) {
  if (origin == node().id()) return;
  auto [it, inserted] =
      table_.try_emplace(origin, std::make_pair(hops_to_me, sequence));
  if (inserted) return;
  auto& [hops, seq] = it->second;
  if (sequence > seq) {
    seq = sequence;
    hops = hops_to_me;
  } else if (sequence == seq) {
    hops = std::min(hops, hops_to_me);
  }
}

std::uint64_t GradientProtocol::send_data(std::uint32_t target,
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

  const auto it = table_.find(target);
  if (it == table_.end()) {
    if (!wait_.hold(target, std::move(init))) ++stats_.pending_dropped;
    return uid;
  }
  init.expected_hops = it->second.first;  // my height on the gradient
  ++stats_.data_originated;
  originate(net::make_packet(std::move(init)));
  return uid;
}

void GradientProtocol::originate(net::PacketRef packet) {
  packet.hop().actual_hops = 0;
  packet.hop().prev_hop = node().id();
  seen_.observe(packet.flood_key());
  relayed_.observe(packet.flood_key());
  node().send_packet(packet, mac::kBroadcastAddress, 0.0);
}

bool GradientProtocol::discover(std::uint32_t target, std::uint32_t retries) {
  if (retries == 0) ++stats_.discoveries_started;  // a retry is not a new one
  net::PacketInit init;
  init.type = net::PacketType::PathDiscovery;
  init.origin = node().id();
  init.target = target;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.ttl = config_.ttl;
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  net::PacketRef packet = net::make_packet(std::move(init));
  seen_.observe(packet.flood_key());
  node().send_packet(packet, mac::kBroadcastAddress, 0.0);
  return true;
}

void GradientProtocol::send_held(std::uint32_t target,
                                 std::vector<net::PacketRef> held) {
  const auto entry = table_.find(target);
  RRNET_ASSERT(entry != table_.end());
  for (net::PacketRef& packet : held) {
    packet.hop().expected_hops = entry->second.first;
    ++stats_.data_originated;
    originate(std::move(packet));
  }
}

void GradientProtocol::handle_discovery(const net::PacketRef& packet) {
  update_table(packet.origin(), packet.sequence(),
               static_cast<std::uint16_t>(packet.actual_hops() + 1));
  const bool is_new = seen_.observe(packet.flood_key());
  if (packet.target() == node().id()) {
    if (is_new && !wait_.waiting(packet.origin())) {
      // Answer with a gradient-forwarded reply so the requester learns its
      // distance to us (symmetric to RR's path reply).
      const auto it = table_.find(packet.origin());
      RRNET_ASSERT(it != table_.end());
      net::PacketInit reply;
      reply.type = net::PacketType::PathReply;
      reply.origin = node().id();
      reply.target = packet.origin();
      reply.sequence = next_sequence_++;
      reply.uid = node().next_packet_uid();
      reply.ttl = config_.ttl;
      reply.created_at = node().scheduler().now();
      ++stats_.replies_sent;
      // Height toward the requester is what gates forwarding.
      reply.expected_hops = it->second.first;
      originate(net::make_packet(std::move(reply)));
    }
    return;
  }
  if (!is_new || packet.ttl() == 0) return;
  net::PacketRef copy = packet;
  copy.hop().ttl -= 1;
  copy.hop().actual_hops += 1;
  copy.hop().prev_hop = node().id();
  const des::Time delay = rng_.uniform(0.0, config_.discovery_lambda);
  node().scheduler().schedule_in(delay, [this, copy, delay]() {
    ++stats_.discovery_relays;
    node().send_packet(copy, mac::kBroadcastAddress, delay);
  });
}

void GradientProtocol::handle_forwarded(const net::PacketRef& packet) {
  update_table(packet.origin(), packet.sequence(),
               static_cast<std::uint16_t>(packet.actual_hops() + 1));
  const std::uint64_t key = packet.flood_key();
  seen_.observe(key);

  if (packet.target() == node().id()) {
    if (delivered_.observe(key)) {
      net::PacketRef delivered = packet;
      delivered.hop().actual_hops =
          static_cast<std::uint16_t>(packet.actual_hops() + 1);
      if (packet.type() == net::PacketType::Data) {
        ++stats_.data_delivered;
        node().deliver_to_app(delivered);
      } else {
        wait_.release(packet.origin());
      }
    }
    return;
  }

  // Gradient rule: forward iff strictly closer to the target than the node
  // we heard it from — and only once per packet.
  const auto it = table_.find(packet.target());
  if (it == table_.end() || it->second.first >= packet.expected_hops()) {
    ++stats_.not_on_gradient;
    return;
  }
  if (packet.ttl() == 0) return;
  if (!relayed_.observe(key)) return;  // already relayed this packet
  net::PacketRef copy = packet;
  copy.hop().ttl -= 1;
  copy.hop().actual_hops += 1;
  copy.hop().prev_hop = node().id();
  copy.hop().expected_hops = it->second.first;  // my height gates the next ring
  const des::Time delay = rng_.uniform(0.0, config_.jitter);
  node().scheduler().schedule_in(delay, [this, copy, delay]() {
    ++stats_.relays;
    node().send_packet(copy, mac::kBroadcastAddress, delay);
  });
}

void GradientProtocol::on_packet(const net::PacketRef& packet,
                                 const phy::RxInfo& /*info*/, bool /*for_us*/,
                                 std::uint32_t /*mac_src*/) {
  switch (packet.type()) {
    case net::PacketType::PathDiscovery:
      handle_discovery(packet);
      return;
    case net::PacketType::PathReply:
    case net::PacketType::Data:
      handle_forwarded(packet);
      return;
    default:
      return;
  }
}


void GradientProtocol::snapshot_metrics(obs::MetricRegistry& reg) const {
  net::snapshot_metrics(seen_, reg);
  net::snapshot_metrics(relayed_, reg);
  net::snapshot_metrics(delivered_, reg);
}

}  // namespace rrnet::proto

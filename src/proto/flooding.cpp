#include "proto/flooding.hpp"

#include <utility>

#include "net/network.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

FloodingProtocol::FloodingProtocol(net::Node& node, FloodingConfig config,
                                   std::unique_ptr<core::BackoffPolicy> policy)
    : net::Protocol(node),
      config_(config),
      policy_(std::move(policy)),
      elections_(node.scheduler()),
      rng_(node.rng().fork("flooding")) {
  RRNET_EXPECTS(policy_ != nullptr);
}

void FloodingProtocol::start() {
  rssi_span_ = core::rssi_span(node().network().channel());
}

core::ElectionContext FloodingProtocol::make_context(
    const phy::RxInfo& info) const noexcept {
  core::ElectionContext ctx;
  ctx.rssi_dbm = info.rssi_dbm;
  ctx.rssi_min_dbm = rssi_span_.min_dbm;
  ctx.rssi_max_dbm = rssi_span_.max_dbm;
  return ctx;
}

std::uint64_t FloodingProtocol::send_data(std::uint32_t target,
                                 std::uint32_t payload_bytes) {
  net::PacketInit init;
  init.type = net::PacketType::Data;
  init.origin = node().id();
  init.target = target;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.actual_hops = 0;
  init.ttl = config_.ttl;
  init.prev_hop = node().id();
  init.payload_bytes = payload_bytes;
  init.created_at = node().scheduler().now();
  net::PacketRef packet = net::make_packet(std::move(init));
  ++stats_.originated;
  seen_.observe(packet.flood_key());  // never relay our own packet
  node().send_packet(packet, mac::kBroadcastAddress, /*priority=*/0.0);
  return packet.uid();
}

void FloodingProtocol::relay(net::PacketRef packet, des::Time priority_delay) {
  if (packet.ttl() == 0) {
    ++stats_.ttl_expired;
    return;
  }
  packet.hop().ttl -= 1;
  packet.hop().actual_hops += 1;
  packet.hop().prev_hop = node().id();
  ++stats_.relayed;
  node().send_packet(packet, mac::kBroadcastAddress, priority_delay);
}

void FloodingProtocol::on_packet(const net::PacketRef& packet,
                                 const phy::RxInfo& info, bool /*for_us*/,
                                 std::uint32_t mac_src) {
  if (packet.type() != net::PacketType::Data) return;
  const std::uint64_t key = packet.flood_key();
  const bool is_new = seen_.observe(key);

  if (packet.target() == node().id()) {
    // Addressed here: deliver the first copy, relay none.
    if (!is_new) return;
    net::PacketRef delivered = packet;
    delivered.hop().actual_hops += 1;  // hops traveled to reach this node
    ++stats_.delivered;
    node().deliver_to_app(delivered);
    return;
  }

  if (config_.blind) {
    // Original flooding: rebroadcast once per (packet, transmitting
    // neighbor) copy — "forward to every neighbor except the one from which
    // the packet came" in broadcast-medium form.
    const std::uint64_t copy_key = key ^ (0x9E3779B97F4A7C15ULL *
                                          (static_cast<std::uint64_t>(mac_src) + 1));
    if (!copy_seen_.insert(copy_key).second) return;
    const des::Time delay = rng_.uniform(0.0, config_.lambda);
    // The ref shares the buffer: scheduling a relay copies 24 bytes, never
    // the packet.
    node().scheduler().schedule_in(delay, [this, copy = packet, delay]() {
      relay(copy, delay);
    });
    return;
  }

  if (is_new) {
    // First sight: compete in the local leader election to relay it.
    core::ElectionContext ctx = make_context(info);
    elections_.arm(key, *policy_, ctx, rng_,
                   [this, copy = packet](des::Time delay) { relay(copy, delay); });
    return;
  }

  // Duplicate. Plain counter-1 keeps its pending rebroadcast (every node
  // forwards each new packet exactly once); the counter-based variant
  // suppresses once k duplicates have been overheard.
  if (config_.counter_threshold > 0 &&
      seen_.count(key) > config_.counter_threshold) {
    if (elections_.cancel(key, core::CancelReason::DuplicateHeard)) {
      ++stats_.suppressed;
    }
  }
}


void FloodingProtocol::snapshot_metrics(obs::MetricRegistry& reg) const {
  core::snapshot_metrics(elections_.stats(), reg);
  net::snapshot_metrics(seen_, reg);
}

}  // namespace rrnet::proto

#include "proto/routeless.hpp"

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

namespace {
/// Flood key of the packet a NetAck refers to.
std::uint64_t acked_key(const net::PacketRef& netack) {
  return net::flood_key_of(netack.origin(), netack.sequence(),
                           netack.acked_type());
}

constexpr std::size_t kRelayStateCapacity = 8192;
}  // namespace

RoutelessProtocol::RoutelessProtocol(net::Node& node, RoutelessConfig config)
    : RouteWait::Owner(node),
      config_(config),
      gradient_policy_(config.lambda, config.unknown_penalty_hops),
      discovery_policy_(config.discovery_lambda),
      ssaf_policy_(config.discovery_lambda),
      elections_(node.scheduler()),
      arbiter_(node.scheduler(), config.arbiter),
      rng_(node.rng().fork("routeless")) {}

void RoutelessProtocol::start() {
  rssi_span_ = core::rssi_span(node().network().channel());
}

bool RoutelessProtocol::knows_target(std::uint32_t target) const {
  return target == node().id() || table_.count(target) > 0;
}

std::uint32_t RoutelessProtocol::hops_to(std::uint32_t target) const {
  if (target == node().id()) return 0;
  const auto it = table_.find(target);
  RRNET_EXPECTS(it != table_.end());
  return it->second.hops;
}

void RoutelessProtocol::update_table(std::uint32_t origin,
                                     std::uint32_t sequence,
                                     std::uint16_t hops_to_me) {
  if (origin == node().id()) return;
  auto [it, inserted] = table_.try_emplace(origin, TableEntry{hops_to_me, sequence});
  if (inserted) return;
  TableEntry& entry = it->second;
  if (sequence > entry.sequence) {
    // Fresher information supersedes the old distance entirely — this is
    // what lets the table grow back after topology changes.
    entry.sequence = sequence;
    entry.hops = hops_to_me;
  } else if (sequence == entry.sequence) {
    entry.hops = std::min(entry.hops, hops_to_me);
  }
}

RoutelessProtocol::RelayState& RoutelessProtocol::relay_state(
    std::uint64_t key) {
  auto [it, inserted] = relay_states_.try_emplace(key);
  if (inserted) {
    relay_state_order_.push_back(key);
    if (relay_state_order_.size() > kRelayStateCapacity) {
      relay_states_.erase(relay_state_order_.front());
      relay_state_order_.pop_front();
    }
  }
  return it->second;
}

core::ElectionContext RoutelessProtocol::gradient_context(
    const net::PacketRef& packet) const {
  core::ElectionContext ctx;
  const auto it = table_.find(packet.target());
  if (it == table_.end()) {
    ctx.hops_unknown = true;
  } else {
    ctx.hops_table = it->second.hops;
  }
  ctx.hops_expected = packet.expected_hops();
  return ctx;
}

std::uint64_t RoutelessProtocol::send_data(std::uint32_t target,
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
  init.expected_hops =
      it->second.hops > 0 ? static_cast<std::uint16_t>(it->second.hops - 1) : 0;
  ++stats_.data_originated;
  originate_forwarded(net::make_packet(std::move(init)));
  return uid;
}

bool RoutelessProtocol::discover(std::uint32_t target, std::uint32_t retries) {
  ++(retries == 0 ? stats_.discoveries_started : stats_.discovery_retries);
  net::PacketInit init;
  init.type = net::PacketType::PathDiscovery;
  init.origin = node().id();
  init.target = target;
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.actual_hops = 0;
  init.ttl = config_.ttl;
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  net::PacketRef packet = net::make_packet(std::move(init));
  seen_.observe(packet.flood_key());
  node().send_packet(packet, mac::kBroadcastAddress, 0.0);
  return true;
}

void RoutelessProtocol::send_held(std::uint32_t target,
                                  std::vector<net::PacketRef> held) {
  const auto entry = table_.find(target);
  RRNET_ASSERT(entry != table_.end());
  const std::uint16_t expected =
      entry->second.hops > 0
          ? static_cast<std::uint16_t>(entry->second.hops - 1)
          : 0;
  for (net::PacketRef& packet : held) {
    packet.hop().expected_hops = expected;
    ++stats_.data_originated;
    originate_forwarded(std::move(packet));
  }
}

void RoutelessProtocol::originate_forwarded(net::PacketRef packet) {
  packet.hop().actual_hops = 0;
  packet.hop().prev_hop = node().id();
  const std::uint64_t key = packet.flood_key();
  seen_.observe(key);
  RelayState& st = relay_state(key);
  st.relayed = true;
  st.relayed_hops = 0;
  st.relayed_copy = packet;
  node().send_packet(packet, mac::kBroadcastAddress, 0.0);
  watch_as_arbiter(key, packet);
}

void RoutelessProtocol::watch_as_arbiter(std::uint64_t key,
                                         const net::PacketRef& sent_copy) {
  // Each callback captures its own 24-byte ref to the shared buffer; the
  // retransmit path may fire several times and resends the same copy.
  arbiter_.watch(key, core::Arbiter::Callbacks{
      /*retransmit=*/[this, copy = sent_copy]() {
        node().send_packet(copy, mac::kBroadcastAddress, 0.0);
      },
      /*send_ack=*/[this, copy = sent_copy]() { send_netack(copy); }});
}

void RoutelessProtocol::send_netack(const net::PacketRef& acked) {
  net::PacketInit init;
  init.type = net::PacketType::NetAck;
  init.origin = acked.origin();
  init.target = acked.target();
  init.sequence = acked.sequence();
  init.acked_type = acked.type();
  init.uid = node().next_packet_uid();
  init.prev_hop = node().id();
  init.created_at = node().scheduler().now();
  ++stats_.netacks_sent;
  node().send_packet(net::make_packet(std::move(init)),
                     mac::kBroadcastAddress, 0.0);
}

void RoutelessProtocol::do_relay(std::uint64_t key, net::PacketRef copy,
                                 des::Time delay) {
  if (copy.ttl() == 0) {
    ++stats_.ttl_expired;
    return;
  }
  copy.hop().ttl -= 1;
  copy.hop().actual_hops += 1;
  copy.hop().prev_hop = node().id();
  const auto it = table_.find(copy.target());
  if (it != table_.end()) {
    copy.hop().expected_hops =
        it->second.hops > 0 ? static_cast<std::uint16_t>(it->second.hops - 1)
                            : 0;
  } else if (copy.expected_hops() > 0) {
    copy.hop().expected_hops -= 1;
  }
  RelayState& st = relay_state(key);
  st.relayed = true;
  st.relayed_hops = copy.actual_hops();
  st.relayed_copy = copy;
  ++stats_.relays;
  node().send_packet(copy, mac::kBroadcastAddress, delay);
  watch_as_arbiter(key, copy);
}

void RoutelessProtocol::handle_discovery(const net::PacketRef& packet,
                                         const phy::RxInfo& info) {
  const std::uint16_t hops_to_me =
      static_cast<std::uint16_t>(packet.actual_hops() + 1);
  update_table(packet.origin(), packet.sequence(), hops_to_me);
  const std::uint64_t key = packet.flood_key();
  const bool is_new = seen_.observe(key);
  if (packet.target() == node().id()) {
    if (is_new) send_reply(packet);
    return;
  }
  if (!is_new) {
    // Counter-1 forwards each discovery exactly once and never concedes;
    // SSAF discovery treats the overheard rebroadcast as a winning
    // announcement and cancels (fewer discovery relays, larger jumps).
    if (config_.ssaf_discovery) {
      elections_.cancel(key, core::CancelReason::DuplicateHeard);
    }
    return;
  }
  if (packet.ttl() == 0) {
    ++stats_.ttl_expired;
    return;
  }
  core::ElectionContext ctx;
  ctx.rssi_dbm = info.rssi_dbm;
  ctx.rssi_min_dbm = rssi_span_.min_dbm;
  ctx.rssi_max_dbm = rssi_span_.max_dbm;
  const core::BackoffPolicy& policy =
      config_.ssaf_discovery
          ? static_cast<const core::BackoffPolicy&>(ssaf_policy_)
          : static_cast<const core::BackoffPolicy&>(discovery_policy_);
  elections_.arm(key, policy, ctx, rng_,
                 [this, copy = packet](des::Time delay) {
                   net::PacketRef relay = copy;
                   relay.hop().ttl -= 1;
                   relay.hop().actual_hops += 1;
                   relay.hop().prev_hop = node().id();
                   ++stats_.discovery_relays;
                   node().send_packet(relay, mac::kBroadcastAddress, delay);
                 });
}

void RoutelessProtocol::send_reply(const net::PacketRef& discovery) {
  const auto it = table_.find(discovery.origin());
  RRNET_ASSERT(it != table_.end());
  net::PacketInit init;
  init.type = net::PacketType::PathReply;
  init.origin = node().id();
  init.target = discovery.origin();
  init.sequence = next_sequence_++;
  init.uid = node().next_packet_uid();
  init.ttl = config_.ttl;
  init.expected_hops =
      it->second.hops > 0 ? static_cast<std::uint16_t>(it->second.hops - 1)
                          : 0;
  init.created_at = node().scheduler().now();
  ++stats_.replies_sent;
  originate_forwarded(net::make_packet(std::move(init)));
}

void RoutelessProtocol::handle_forwarded(const net::PacketRef& packet,
                                         std::uint32_t mac_src) {
  const std::uint16_t hops_to_me =
      static_cast<std::uint16_t>(packet.actual_hops() + 1);
  update_table(packet.origin(), packet.sequence(), hops_to_me);
  const std::uint64_t key = packet.flood_key();
  const bool is_new = seen_.observe(key);

  if (packet.target() == node().id()) {
    // Destination reached. Acknowledge every copy (the upstream arbiter may
    // have missed our earlier ack), deliver once.
    send_netack(packet);
    if (delivered_.observe(key)) {
      net::PacketRef delivered = packet;
      delivered.hop().actual_hops = hops_to_me;
      if (packet.type() == net::PacketType::Data) {
        ++stats_.data_delivered;
        node().deliver_to_app(delivered);
      } else {
        ++stats_.replies_delivered;
        // Path discovery complete: the table entry for the reply's origin
        // (the destination we were looking for) was just updated.
        wait_.release(packet.origin());
      }
    }
    return;
  }

  RelayState& st = relay_state(key);
  if (is_new) {
    st.armed_hops = packet.actual_hops();
    st.armed_from = mac_src;
    // First-round eligibility: only nodes at or inside the expected
    // distance compete ("the node closer to the target node should be given
    // the higher priority"). Nodes that would land in the penalty band stay
    // silent for now — if no eligible node exists, the arbiter's
    // retransmission re-runs the election below with everyone included,
    // which is what bounds the relay set to the downhill cone while still
    // guaranteeing progress around dead ends.
    const auto entry = table_.find(packet.target());
    const bool eligible = entry != table_.end() &&
                          entry->second.hops <= packet.expected_hops();
    if (eligible) {
      elections_.arm(key, gradient_policy_, gradient_context(packet), rng_,
                     [this, key, copy = packet](des::Time delay) {
                       do_relay(key, copy, delay);
                     });
    }
    return;
  }

  // Duplicate copy. A *retransmission* — the upstream arbiter trying again —
  // is recognizable as the same packet from the same neighbor we first
  // heard it from; late copies from parallel same-hop winners are not
  // retransmissions and must not re-trigger anything, or congestion feeds
  // on itself.
  const bool is_retransmission =
      mac_src == st.armed_from && packet.actual_hops() == st.armed_hops;
  if (st.relayed) {
    if (packet.actual_hops() > st.relayed_hops) {
      // Someone downstream relayed our copy: as arbiter, acknowledge.
      arbiter_.relay_heard(key);
    } else if (is_retransmission &&
               st.re_relays_used < config_.arbiter.max_retransmits) {
      // Our relay was not heard upstream: resend after a short random gap.
      ++st.re_relays_used;
      ++stats_.re_relays;
      const des::Time delay = rng_.uniform(0.0, config_.lambda);
      node().scheduler().schedule_in(
          delay, [this, key, copy = st.relayed_copy, delay]() {
            node().send_packet(copy, mac::kBroadcastAddress, delay);
            watch_as_arbiter(key, copy);
          });
    }
    return;
  }
  if (elections_.armed(key)) {
    // Cancellation rule (i): receiving the same packet again means another
    // node already relayed it — concede. (A retransmission from our own
    // upstream neighbor is the arbiter *re-running* the election, not a
    // competing relay, so it does not cancel.) This literal reading of the
    // rule is what keeps the relay set narrow: nodes between two successive
    // relayers hear both copies and drop out, leaving only the fresh
    // forward crescent competing for the next hop.
    if (!is_retransmission) {
      elections_.cancel(key, core::CancelReason::DuplicateHeard);
      st.cancelled_from = mac_src;
      st.cancelled_hops = packet.actual_hops();
    }
    return;
  }
  // Inactive (cancelled earlier or never armed). A retransmission — from
  // the neighbor that first triggered us, or from the relayer that
  // cancelled us — re-runs the election (the arbiter found no successor).
  const bool cancelled_retransmission =
      mac_src == st.cancelled_from && packet.actual_hops() == st.cancelled_hops;
  if (is_retransmission || cancelled_retransmission) {
    st.armed_from = mac_src;
    st.armed_hops = packet.actual_hops();
    elections_.arm(key, gradient_policy_, gradient_context(packet), rng_,
                   [this, key, copy = packet](des::Time delay) {
                     do_relay(key, copy, delay);
                   });
  }
}

void RoutelessProtocol::handle_netack(const net::PacketRef& packet) {
  const std::uint64_t key = acked_key(packet);
  RelayState& st = relay_state(key);
  // Cancellation rule (ii), precisely as stated: concede only on an
  // acknowledgement "from the node from which it received the packet" —
  // that node is the arbiter of *our* cohort, and its ack means our
  // election concluded with another winner. Acks from other nodes concern
  // other cohorts (e.g. the previous hop's) and must not cancel us, or the
  // ack cascade would suppress the very elections that keep the packet
  // moving.
  if (packet.prev_hop() == st.armed_from) {
    elections_.cancel(key, core::CancelReason::ArbiterAck);
  }
  // The target's own ack ("the packet has reached the target, stop other
  // nodes from trying to retransmit") ends our arbitration for this packet.
  // An intermediate ack does not: it acknowledges the PREVIOUS hop's relay,
  // while we are still responsible for finding our successor.
  if (packet.prev_hop() == packet.target()) {
    arbiter_.stop(key);
    elections_.cancel(key, core::CancelReason::ArbiterAck);
  }
}

void RoutelessProtocol::on_packet(const net::PacketRef& packet,
                                  const phy::RxInfo& info, bool /*for_us*/,
                                  std::uint32_t mac_src) {
  switch (packet.type()) {
    case net::PacketType::PathDiscovery:
      handle_discovery(packet, info);
      return;
    case net::PacketType::PathReply:
    case net::PacketType::Data:
      handle_forwarded(packet, mac_src);
      return;
    case net::PacketType::NetAck:
      handle_netack(packet);
      return;
    default:
      return;  // AODV control traffic in mixed deployments: ignore
  }
}


void RoutelessProtocol::snapshot_metrics(obs::MetricRegistry& reg) const {
  core::snapshot_metrics(elections_.stats(), reg);
  core::snapshot_metrics(arbiter_.stats(), reg);
  net::snapshot_metrics(seen_, reg);
  net::snapshot_metrics(delivered_, reg);
}

}  // namespace rrnet::proto

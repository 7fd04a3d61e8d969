#include "net/network.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace rrnet::net {

Network::Network(des::Scheduler& scheduler, const geom::Terrain& terrain,
                 std::unique_ptr<phy::PropagationModel> model,
                 phy::RadioParams radio_params, mac::MacParams mac_params,
                 std::vector<geom::Vec2> positions, des::Rng root_rng)
    : scheduler_(&scheduler) {
  const std::size_t n = positions.size();
  RRNET_EXPECTS(n > 0);
  channel_ = std::make_unique<phy::Channel>(
      scheduler, terrain, std::move(model), radio_params, std::move(positions),
      root_rng.fork("channel"));
  nodes_.resize(n);
  for (const std::uint32_t id : channel_->layout_order()) {
    nodes_[id] = std::make_unique<Node>(*this, id, mac_params,
                                        root_rng.fork("node", id));
  }
}

Network::~Network() {
  // Freed in layout order, as the channel frees its transceivers.
  for (const std::uint32_t id : channel_->layout_order()) nodes_[id].reset();
}

Node& Network::node(std::uint32_t id) {
  RRNET_EXPECTS(id < nodes_.size());
  return *nodes_[id];
}

const Node& Network::node(std::uint32_t id) const {
  RRNET_EXPECTS(id < nodes_.size());
  return *nodes_[id];
}

void Network::start_protocols() {
  // Id order: start() may schedule equal-time events, whose sequence
  // numbers break the ties.
  for (auto& node : nodes_) {
    if (node->has_protocol()) node->protocol().start();
  }
}

std::uint64_t Network::total_mac_tx() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint32_t id : channel_->layout_order()) {
    total += nodes_[id]->mac().stats().total_tx();
  }
  return total;
}

void Network::add_observer(PacketObserver* observer) {
  RRNET_EXPECTS(observer != nullptr);
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;  // already registered; keep notification order stable
  }
  observers_.push_back(observer);
}

void Network::remove_observer(PacketObserver* observer) noexcept {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void Network::snapshot_metrics(obs::MetricRegistry& reg) const {
  namespace m = obs::metric;
  // Sum the nodes' stats first and register each metric once: every
  // registry update is a sorted-name lookup. Integer sums and maxima do not
  // depend on the order, so the walk follows the layout.
  phy::TransceiverStats phy;
  mac::MacStats mac;
  NodeStats net;
  std::size_t queue_high_water = 0;
  for (const std::uint32_t id : channel_->layout_order()) {
    const Node& node = *nodes_[id];
    phy += channel_->transceiver(id).stats();
    mac += node.mac().stats();
    queue_high_water = std::max(queue_high_water, node.mac().queue_high_water());
    net += node.stats();
    if (node.has_protocol()) node.protocol().snapshot_metrics(reg);
  }

  // The channel-wide counts are these sums (phy::Channel::stats).
  reg.add(m::kPhyTransmissions, phy.frames_sent);
  reg.add(m::kPhyDeliveries, phy.frames_decoded);
  reg.add(m::kPhyTxFrames, phy.frames_sent);
  reg.add(m::kPhySignalsArrived, phy.signals_arrived);
  reg.add(m::kPhyRxDecoded, phy.frames_decoded);
  reg.add(m::kPhyDropCollision, phy.frames_collided);
  reg.add(m::kPhyDropRxWhileBusy, phy.frames_missed_busy);
  reg.add(m::kPhyDropBelowSensitivity, phy.frames_below_threshold);
  reg.add(m::kPhyDropWhileOff, phy.frames_while_off);
  reg.add(m::kPhyDropAbortedOff, phy.frames_aborted_off);
  reg.add(m::kPhyTxDroppedOff, phy.tx_dropped_off);
  reg.add(m::kPhyTxDroppedBusy, phy.tx_dropped_busy);

  reg.add(m::kMacDataTx, mac.data_tx);
  reg.add(m::kMacAckTx, mac.ack_tx);
  reg.add(m::kMacRtsTx, mac.rts_tx);
  reg.add(m::kMacCtsTx, mac.cts_tx);
  reg.add(m::kMacBackoffs, mac.backoffs);
  reg.add(m::kMacRetries, mac.retries);
  reg.add(m::kMacCtsTimeouts, mac.cts_timeouts);
  reg.add(m::kMacNavDeferrals, mac.nav_deferrals);
  reg.add(m::kMacUnicastFailures, mac.unicast_failures);
  reg.add(m::kMacQueueDrops, mac.queue_drops);
  reg.add(m::kMacTxDroppedRadioOff, mac.tx_dropped_radio_off);
  reg.set_max(m::kMacQueueHighWater, queue_high_water);
  if (!mac.backoff_slots.empty()) {
    mac.backoff_slots.snapshot_into(reg, m::kMacBackoffSlots);
  }

  reg.add(m::kNetTxData, net.data_tx);
  reg.add(m::kNetTxControl, net.control_tx);
  reg.add(m::kNetDelivered, net.delivered);
}

}  // namespace rrnet::net

// Owns the channel and the nodes; the top of the substrate stack.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "geom/terrain.hpp"
#include "mac/csma.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"

namespace rrnet::net {

class Network {
 public:
  /// Builds the channel and one node (transceiver + MAC) per position, in
  /// the channel's layout_order(). Protocols are attached afterwards via
  /// node(i).set_protocol(...).
  Network(des::Scheduler& scheduler, const geom::Terrain& terrain,
          std::unique_ptr<phy::PropagationModel> model,
          phy::RadioParams radio_params, mac::MacParams mac_params,
          std::vector<geom::Vec2> positions, des::Rng root_rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] Node& node(std::uint32_t id);
  [[nodiscard]] const Node& node(std::uint32_t id) const;
  [[nodiscard]] phy::Channel& channel() noexcept { return *channel_; }
  [[nodiscard]] const phy::Channel& channel() const noexcept { return *channel_; }
  [[nodiscard]] des::Scheduler& scheduler() noexcept { return *scheduler_; }

  /// Call every protocol's start() hook (after all protocols are attached).
  void start_protocols();

  /// Observers for tracing (not owned). Multiple observers may watch the
  /// same network — e.g. a PathTrace plus an ad-hoc counter in a test; all
  /// are notified in registration order on every tx/delivery.
  void add_observer(PacketObserver* observer);
  void remove_observer(PacketObserver* observer) noexcept;
  [[nodiscard]] const std::vector<PacketObserver*>& observers() const noexcept {
    return observers_;
  }

  /// Total MAC transmissions (data + ACK) across all nodes — the paper's
  /// "Number of MAC Packets" metric.
  [[nodiscard]] std::uint64_t total_mac_tx() const noexcept;

  /// Dump every layer's counters (PHY, MAC, net, per-protocol) into `reg`.
  /// Pure observation: never mutates simulation state.
  void snapshot_metrics(obs::MetricRegistry& reg) const;

 private:
  des::Scheduler* scheduler_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;  ///< by id
  std::vector<PacketObserver*> observers_;
};

}  // namespace rrnet::net

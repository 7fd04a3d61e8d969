// A wireless node: transceiver + CSMA MAC + one network protocol +
// application delivery handler, glued together.
#pragma once

#include <cstdint>
#include <memory>

#include "des/inline_callback.hpp"
#include "des/rng.hpp"
#include "geom/vec2.hpp"
#include "mac/csma.hpp"
#include "net/packet_buffer.hpp"
#include "net/protocol.hpp"
#include "util/pool.hpp"

namespace rrnet::net {

class Network;

/// Observes every network-layer transmission and delivery in the network
/// (path tracing for Figure 2, hop accounting, debugging).
class PacketObserver {
 public:
  virtual ~PacketObserver() = default;
  virtual void on_network_tx(std::uint32_t node, const PacketRef& packet) {
    (void)node;
    (void)packet;
  }
  virtual void on_delivered(std::uint32_t node, const PacketRef& packet) {
    (void)node;
    (void)packet;
  }
};

/// Per-node network-layer counters. Control = every non-Data packet type
/// (discovery floods, replies, net-acks, route maintenance) — the overhead
/// side of the paper's control-vs-data split.
struct NodeStats {
  std::uint64_t data_tx = 0;
  std::uint64_t control_tx = 0;
  std::uint64_t delivered = 0;

  NodeStats& operator+=(const NodeStats& o) noexcept {
    data_tx += o.data_tx;
    control_tx += o.control_tx;
    delivered += o.delivered;
    return *this;
  }
};

class Node final : public mac::MacListener, public util::PoolAllocated {
 public:
  Node(Network& network, std::uint32_t id, const mac::MacParams& mac_params,
       des::Rng rng);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] Network& network() const noexcept { return *network_; }
  [[nodiscard]] mac::CsmaMac& mac() noexcept { return *mac_; }
  [[nodiscard]] const mac::CsmaMac& mac() const noexcept { return *mac_; }
  [[nodiscard]] geom::Vec2 position() const;
  [[nodiscard]] des::Scheduler& scheduler() const;
  [[nodiscard]] des::Rng& rng() noexcept { return rng_; }

  /// Fresh unique packet uid: (node id << 32) | per-node counter. Keyed to
  /// the originating node (not a network-global counter) so the uids a node
  /// hands out are independent of every other node's traffic.
  [[nodiscard]] std::uint64_t next_packet_uid() noexcept {
    return (static_cast<std::uint64_t>(id_) << 32) | ++last_uid_;
  }

  /// Install the protocol (exactly once, before start()).
  void set_protocol(std::unique_ptr<Protocol> protocol);
  [[nodiscard]] Protocol& protocol() const;
  [[nodiscard]] bool has_protocol() const noexcept { return protocol_ != nullptr; }

  /// Transmit a network packet via the MAC. `mac_dst` is a neighbor id or
  /// mac::kBroadcastAddress; `priority` feeds the net->MAC priority queue
  /// (lower = sooner; pass the election backoff delay). The packet travels
  /// by reference: only the 24-byte ref is enqueued, never a packet copy.
  void send_packet(const PacketRef& packet, std::uint32_t mac_dst,
                   double priority = 0.0);

  /// Deliver a packet to the application on this node (destination reached).
  void deliver_to_app(const PacketRef& packet);

  /// Application delivery sink. Inline (64-byte capture budget) — the last
  /// std::function on the hot path is gone; oversized captures are a
  /// compile error, not a silent heap allocation.
  using DeliveryHandler = des::InlineFunction<void(const PacketRef&), 64>;
  void set_delivery_handler(DeliveryHandler handler) {
    delivery_handler_ = std::move(handler);
  }

  [[nodiscard]] const NodeStats& stats() const noexcept { return stats_; }

  // mac::MacListener
  void mac_receive(const mac::Frame& frame, const phy::RxInfo& info,
                   bool for_us) override;
  void mac_send_done(const mac::Frame& frame, bool success) override;

 private:
  Network* network_;
  std::uint32_t id_;
  des::Rng rng_;
  std::unique_ptr<mac::CsmaMac> mac_;
  std::unique_ptr<Protocol> protocol_;
  DeliveryHandler delivery_handler_;
  NodeStats stats_;
  std::uint32_t last_uid_ = 0;
};

}  // namespace rrnet::net

// Network-protocol interface. One protocol instance runs per node; the Node
// routes MAC deliveries into it and the application (CBR) drives it through
// send_data(). Destination-side deliveries flow out through the node's
// delivery handler.
#pragma once

#include <cstdint>

#include "net/packet_buffer.hpp"
#include "obs/metrics.hpp"
#include "util/pool.hpp"
#include "phy/radio.hpp"

namespace rrnet::net {

class Node;

class Protocol : public util::PoolAllocated {
 public:
  explicit Protocol(Node& node) noexcept : node_(&node) {}
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Called once after the whole network is wired, before traffic starts.
  virtual void start() {}

  /// A network packet arrived from the MAC. `for_us` is true when the MAC
  /// destination was this node or broadcast; false for promiscuously
  /// overheard unicast frames. `mac_src` is the transmitting neighbor.
  virtual void on_packet(const PacketRef& packet, const phy::RxInfo& info,
                         bool for_us, std::uint32_t mac_src) = 0;

  /// The MAC finished (or gave up on) one of our frames. Unicast protocols
  /// use `success == false` as a link-break signal; `mac_dst` identifies the
  /// neighbor the frame was addressed to (kBroadcastAddress for broadcasts).
  virtual void on_send_done(const PacketRef& packet, bool success,
                            std::uint32_t mac_dst) {
    (void)packet;
    (void)success;
    (void)mac_dst;
  }

  /// Application entry point: originate `payload_bytes` of data to `target`.
  /// Returns the uid of the created packet (for end-to-end accounting).
  virtual std::uint64_t send_data(std::uint32_t target,
                                  std::uint32_t payload_bytes) = 0;

  /// Human-readable protocol name for reports.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Dump protocol-level counters (elections, duplicate caches, ...) into
  /// `reg` using the obs::metric vocabulary. Called once at end-of-run by
  /// Network::snapshot_metrics; must not mutate protocol state.
  virtual void snapshot_metrics(obs::MetricRegistry& reg) const { (void)reg; }

  [[nodiscard]] Node& node() const noexcept { return *node_; }

 private:
  Node* node_;
};

}  // namespace rrnet::net

// Flooding protocols (§3).
//
// One engine covers the paper's three flooding flavors:
//  * blind ("original") flooding — every received copy is rebroadcast (per
//    transmitting neighbor), the broadcast-storm baseline AODV's discovery
//    uses in the paper;
//  * counter-1 flooding — a packet is rebroadcast only the first time its
//    (origin, sequence) is seen; backoff drawn uniformly at random;
//  * SSAF — counter-1 with the backoff derived from received signal
//    strength via the local-leader-election machinery (see ssaf.hpp).
//
// An optional counter threshold k (Tseng et al.'s counter-based scheme)
// cancels a pending rebroadcast after k duplicate copies are overheard
// during the backoff; the paper's counter-1 has no suppression (k = 0).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include "util/pooled_containers.hpp"

#include "core/backoff_policy.hpp"
#include "core/election.hpp"
#include "net/duplicate_cache.hpp"
#include "net/node.hpp"
#include "net/protocol.hpp"

namespace rrnet::proto {

struct FloodingConfig {
  des::Time lambda = 10e-3;      ///< backoff scale (max delay for uniform)
  std::uint8_t ttl = 32;         ///< max relays per packet
  bool blind = false;            ///< original flooding (per-copy rebroadcast)
  std::uint32_t counter_threshold = 0;  ///< k>0: suppress after k duplicates
};

struct FloodingStats {
  std::uint64_t originated = 0;
  std::uint64_t relayed = 0;
  std::uint64_t suppressed = 0;  ///< cancelled by the counter threshold
  std::uint64_t ttl_expired = 0;
  std::uint64_t delivered = 0;
};

class FloodingProtocol : public net::Protocol {
 public:
  /// `policy` decides the rebroadcast backoff; counter-1 passes
  /// UniformBackoff, SSAF passes SignalStrengthBackoff.
  FloodingProtocol(net::Node& node, FloodingConfig config,
                   std::unique_ptr<core::BackoffPolicy> policy);

  void start() override;
  void on_packet(const net::PacketRef& packet, const phy::RxInfo& info,
                 bool for_us, std::uint32_t mac_src) override;
  std::uint64_t send_data(std::uint32_t target,
                          std::uint32_t payload_bytes) override;
  const char* name() const noexcept override { return "flooding"; }
  void snapshot_metrics(obs::MetricRegistry& reg) const override;

  [[nodiscard]] const FloodingStats& flood_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const core::ElectionStats& election_stats() const noexcept {
    return elections_.stats();
  }

 protected:
  /// Build the election context for a received copy (RSSI normalization
  /// bounds come from the channel; hop fields unused by flooding).
  [[nodiscard]] core::ElectionContext make_context(
      const phy::RxInfo& info) const noexcept;

 private:
  void relay(net::PacketRef packet, des::Time priority_delay);

  FloodingConfig config_;
  std::unique_ptr<core::BackoffPolicy> policy_;
  net::DuplicateCache seen_;
  util::PooledUnorderedSet<std::uint64_t> copy_seen_;  ///< blind: (key, prev_hop)
  core::ElectionTable elections_;
  des::Rng rng_;
  std::uint32_t next_sequence_ = 0;
  core::RssiSpan rssi_span_;
  FloodingStats stats_;
};

}  // namespace rrnet::proto

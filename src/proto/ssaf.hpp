// Signal Strength Aware Flooding (§3).
//
// SSAF is counter-1 flooding whose rebroadcast backoff comes from the
// received signal strength instead of a uniform draw: the weaker the signal,
// the farther the receiver probably is from the sender, and the sooner it
// rebroadcasts. "SSAF does not intend to precisely select the furthest node
// every time, but to choose nodes that are highly likely to be far away."
#pragma once

#include <memory>

#include "proto/flooding.hpp"

namespace rrnet::proto {

struct SsafConfig {
  des::Time lambda = 10e-3;      ///< backoff scale
  double jitter_fraction = 0.1;  ///< random tie-break share of the backoff
  std::uint8_t ttl = 32;
  /// Duplicates overheard during the backoff before conceding. SSAF runs a
  /// local leader election per packet per neighborhood: an overheard
  /// rebroadcast IS the winner's announcement, so the default cancels after
  /// the first one (§2's cancellation rule applied to flooding). Setting
  /// this to 0 disables suppression (ordering-only SSAF, for ablation).
  std::uint32_t counter_threshold = 1;
};

class SsafProtocol final : public FloodingProtocol {
 public:
  SsafProtocol(net::Node& node, SsafConfig config = {});
  const char* name() const noexcept override { return "ssaf"; }
};

/// Factory helpers mirroring the paper's two Figure-1 contenders.
[[nodiscard]] std::unique_ptr<net::Protocol> make_counter1_flooding(
    net::Node& node, des::Time lambda = 10e-3, std::uint8_t ttl = 32);
[[nodiscard]] std::unique_ptr<net::Protocol> make_ssaf(net::Node& node,
                                                       SsafConfig config = {});

}  // namespace rrnet::proto

// Backoff-delay derivation — the heart of the paper's local leader election.
//
// "The heart of the solution is how to derive the backoff delay based on a
//  metric or a combination of several metrics so that the most desirable
//  node would have the greatest chance of being elected a leader." (§2)
//
// Policies map per-node context (signal strength of the triggering packet,
// hop-count gradient, ...) to a delay. Smaller delay = higher priority: the
// node whose timer fires first transmits the announcement and wins.
#pragma once

#include <cstdint>
#include <memory>

#include "des/rng.hpp"
#include "des/time.hpp"

namespace rrnet::phy {
class Channel;
}  // namespace rrnet::phy

namespace rrnet::core {

/// Everything a policy may consult when computing a node's backoff delay.
struct ElectionContext {
  /// RSSI of the packet that acted as the implicit synchronization point.
  double rssi_dbm = 0.0;
  /// RSSI bounds for normalization: strongest plausible (at point-blank
  /// range) and weakest decodable (the rx threshold).
  double rssi_max_dbm = 0.0;
  double rssi_min_dbm = -64.0;
  /// Hop-count gradient inputs (Routeless Routing): this node's stored
  /// distance to the target and the expected hop count from the packet.
  std::uint32_t hops_table = 0;
  std::uint32_t hops_expected = 0;
  /// True when this node has no entry in its active node table.
  bool hops_unknown = false;
  /// Remaining energy as a fraction of the initial budget, [0, 1]
  /// (EnergyAwareBackoff; cf. the Span coordinator election the paper
  /// cites: "nodes with more connectivity and more energy [get] higher
  /// priority to become the coordinators").
  double energy_fraction = 1.0;
};

/// RSSI normalization bounds for SignalStrengthBackoff. On a channel, the
/// weakest decodable signal arrives from the edge of the nominal range, the
/// strongest realistic one from a neighbor a tenth of the range away.
struct RssiSpan {
  double min_dbm = -64.0;
  double max_dbm = 0.0;
};
[[nodiscard]] RssiSpan rssi_span(const phy::Channel& channel);

class BackoffPolicy {
 public:
  virtual ~BackoffPolicy() = default;
  /// Compute the backoff delay for one election participant. Must be >= 0.
  [[nodiscard]] virtual des::Time delay(const ElectionContext& context,
                                        des::Rng& rng) const = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Fully random backoff over [0, lambda) — what classic CSMA does, and the
/// baseline the paper argues "wastes the precious opportunity to prioritize".
/// Used by counter-1 flooding.
class UniformBackoff final : public BackoffPolicy {
 public:
  explicit UniformBackoff(des::Time lambda);
  des::Time delay(const ElectionContext& context, des::Rng& rng) const override;
  const char* name() const noexcept override { return "uniform"; }
  [[nodiscard]] des::Time lambda() const noexcept { return lambda_; }

 private:
  des::Time lambda_;
};

/// SSAF policy (§3): the weaker the received signal, the farther the node is
/// likely to be from the sender, and the smaller its backoff. The RSSI is
/// normalized into [0, 1] (0 = weakest decodable, 1 = strongest) and scaled
/// by lambda; a small random jitter (a fraction of lambda) breaks ties
/// between nodes with near-identical signal strength.
class SignalStrengthBackoff final : public BackoffPolicy {
 public:
  SignalStrengthBackoff(des::Time lambda, double jitter_fraction = 0.1);
  des::Time delay(const ElectionContext& context, des::Rng& rng) const override;
  const char* name() const noexcept override { return "signal-strength"; }
  [[nodiscard]] des::Time lambda() const noexcept { return lambda_; }

 private:
  des::Time lambda_;
  double jitter_fraction_;
};

/// Routeless Routing policy (§4.1) — the reconstructed two-band equation
/// (see DESIGN.md):
///
///   d = lambda * U(0,1)                                if h_table <= h_expected
///   d = lambda * (h_table - h_expected + U(0,1))       if h_table >  h_expected
///
/// Nodes at or inside the expected distance compete in [0, lambda); nodes
/// farther than expected are pushed beyond lambda, one band per excess hop.
/// Nodes with no table entry are treated as "much farther than expected"
/// via `unknown_penalty_hops` extra bands.
class HopGradientBackoff final : public BackoffPolicy {
 public:
  explicit HopGradientBackoff(des::Time lambda,
                              std::uint32_t unknown_penalty_hops = 4);
  des::Time delay(const ElectionContext& context, des::Rng& rng) const override;
  const char* name() const noexcept override { return "hop-gradient"; }
  [[nodiscard]] des::Time lambda() const noexcept { return lambda_; }

 private:
  des::Time lambda_;
  std::uint32_t unknown_penalty_hops_;
};

/// Energy-aware policy: the more remaining energy, the smaller the backoff
/// — the richest node volunteers for leadership (cluster head, coordinator)
/// and leadership rotates as it drains. A jitter fraction breaks ties.
class EnergyAwareBackoff final : public BackoffPolicy {
 public:
  explicit EnergyAwareBackoff(des::Time lambda, double jitter_fraction = 0.05);
  des::Time delay(const ElectionContext& context, des::Rng& rng) const override;
  const char* name() const noexcept override { return "energy-aware"; }
  [[nodiscard]] des::Time lambda() const noexcept { return lambda_; }

 private:
  des::Time lambda_;
  double jitter_fraction_;
};

}  // namespace rrnet::core

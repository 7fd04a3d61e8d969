#include "core/backoff_policy.hpp"

#include <algorithm>

#include "phy/channel.hpp"
#include "util/contracts.hpp"

namespace rrnet::core {

RssiSpan rssi_span(const phy::Channel& channel) {
  return {channel.params().rx_threshold_dbm,
          channel.model().mean_rx_power_dbm(channel.params().tx_power_dbm,
                                            0.1 * channel.nominal_range_m())};
}

UniformBackoff::UniformBackoff(des::Time lambda) : lambda_(lambda) {
  RRNET_EXPECTS(lambda > 0.0);
}

des::Time UniformBackoff::delay(const ElectionContext& /*context*/,
                                des::Rng& rng) const {
  return lambda_ * rng.uniform01();
}

SignalStrengthBackoff::SignalStrengthBackoff(des::Time lambda,
                                             double jitter_fraction)
    : lambda_(lambda), jitter_fraction_(jitter_fraction) {
  RRNET_EXPECTS(lambda > 0.0);
  RRNET_EXPECTS(jitter_fraction >= 0.0 && jitter_fraction <= 1.0);
}

des::Time SignalStrengthBackoff::delay(const ElectionContext& context,
                                       des::Rng& rng) const {
  const double span = context.rssi_max_dbm - context.rssi_min_dbm;
  // strength = 1 at the strongest plausible signal (closest node),
  // 0 at the weakest decodable one (farthest node).
  double strength = span > 0.0
      ? (context.rssi_dbm - context.rssi_min_dbm) / span
      : 1.0;
  strength = std::clamp(strength, 0.0, 1.0);
  const double jitter = jitter_fraction_ * rng.uniform01();
  return lambda_ * std::min(1.0, strength * (1.0 - jitter_fraction_) + jitter);
}

HopGradientBackoff::HopGradientBackoff(des::Time lambda,
                                       std::uint32_t unknown_penalty_hops)
    : lambda_(lambda), unknown_penalty_hops_(unknown_penalty_hops) {
  RRNET_EXPECTS(lambda > 0.0);
}

des::Time HopGradientBackoff::delay(const ElectionContext& context,
                                    des::Rng& rng) const {
  const double u = rng.uniform01();
  if (context.hops_unknown) {
    return lambda_ * (static_cast<double>(unknown_penalty_hops_) + u);
  }
  if (context.hops_table <= context.hops_expected) {
    return lambda_ * u;
  }
  const double excess = static_cast<double>(context.hops_table) -
                        static_cast<double>(context.hops_expected);
  return lambda_ * (excess + u);
}

}  // namespace rrnet::core

namespace rrnet::core {

EnergyAwareBackoff::EnergyAwareBackoff(des::Time lambda, double jitter_fraction)
    : lambda_(lambda), jitter_fraction_(jitter_fraction) {
  RRNET_EXPECTS(lambda > 0.0);
  RRNET_EXPECTS(jitter_fraction >= 0.0 && jitter_fraction <= 1.0);
}

des::Time EnergyAwareBackoff::delay(const ElectionContext& context,
                                    des::Rng& rng) const {
  const double depleted =
      1.0 - std::clamp(context.energy_fraction, 0.0, 1.0);
  const double jitter = jitter_fraction_ * rng.uniform01();
  return lambda_ *
         std::min(1.0, depleted * (1.0 - jitter_fraction_) + jitter);
}

}  // namespace rrnet::core

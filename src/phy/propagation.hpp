// Large- and small-scale radio propagation models (Rappaport [21]).
//
// The paper's experiments use the free space model; two-ray ground,
// log-distance, Rayleigh fading and log-normal shadowing are provided so the
// SSAF premise ("signal weakens with distance at large scale, may fluctuate
// at small scale") can be exercised and tested under harsher channels.
#pragma once

#include <memory>

#include "des/rng.hpp"

namespace rrnet::phy {

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Received power (dBm) for a transmission at `tx_power_dbm` over
  /// `distance_m` meters; stochastic models draw fading from `rng`.
  [[nodiscard]] virtual double rx_power_dbm(double tx_power_dbm,
                                            double distance_m,
                                            des::Rng& rng) const = 0;

  /// Deterministic large-scale mean (no fading); used for range calibration.
  [[nodiscard]] virtual double mean_rx_power_dbm(double tx_power_dbm,
                                                 double distance_m) const = 0;

  /// Linear-domain form of rx_power_dbm: received power in mW for a
  /// transmission at `tx_power_mw`. This is the channel's per-receiver hot
  /// path — every in-tree model overrides it with pure linear arithmetic
  /// (free space is two multiplies; the dB form costs a log10 per draw,
  /// plus the pow the receiver would spend converting back). The default
  /// round-trips through the dBm entry point so external models stay
  /// correct without overriding. Stochastic models consume the same rng
  /// draws as rx_power_dbm, so replications are draw-for-draw comparable
  /// across the two entry points.
  [[nodiscard]] virtual double rx_power_mw(double tx_power_mw,
                                           double distance_m,
                                           des::Rng& rng) const;

  /// Linear-domain form of mean_rx_power_dbm (same default round-trip).
  [[nodiscard]] virtual double mean_rx_power_mw(double tx_power_mw,
                                                double distance_m) const;

  /// True for models whose rx-power draws consume RNG state (fading,
  /// shadowing). The channel routes such draws through counter-based
  /// per-link streams (des::LinkRng) instead of its sequential stream, so
  /// each draw depends only on (link, frame), never on draw history.
  [[nodiscard]] virtual bool stochastic() const noexcept { return false; }
};

/// Distances below this are clamped (free-space formulas diverge at d = 0).
inline constexpr double kMinDistanceM = 1.0;

/// Friis free space: Pr = Pt + 20 log10(lambda / (4 pi d)).
class FreeSpace final : public PropagationModel {
 public:
  explicit FreeSpace(double frequency_hz = 914e6, double system_loss = 1.0);
  double rx_power_dbm(double tx_power_dbm, double distance_m,
                      des::Rng& rng) const override;
  double mean_rx_power_dbm(double tx_power_dbm,
                           double distance_m) const override;
  double rx_power_mw(double tx_power_mw, double distance_m,
                     des::Rng& rng) const override;
  double mean_rx_power_mw(double tx_power_mw,
                          double distance_m) const override;
  [[nodiscard]] double wavelength_m() const noexcept { return wavelength_; }

 private:
  double wavelength_;
  double system_loss_;
};

/// Two-ray ground reflection: free space below the crossover distance,
/// Pr = Pt + 10 log10(ht^2 hr^2 / d^4) above it.
class TwoRayGround final : public PropagationModel {
 public:
  TwoRayGround(double frequency_hz = 914e6, double tx_height_m = 1.5,
               double rx_height_m = 1.5);
  double rx_power_dbm(double tx_power_dbm, double distance_m,
                      des::Rng& rng) const override;
  double mean_rx_power_dbm(double tx_power_dbm,
                           double distance_m) const override;
  double rx_power_mw(double tx_power_mw, double distance_m,
                     des::Rng& rng) const override;
  double mean_rx_power_mw(double tx_power_mw,
                          double distance_m) const override;
  [[nodiscard]] double crossover_distance_m() const noexcept {
    return crossover_;
  }

 private:
  FreeSpace free_space_;
  double tx_height_;
  double rx_height_;
  double crossover_;
};

/// Log-distance path loss: free-space loss to d0, then n * 10 log10(d/d0).
class LogDistance final : public PropagationModel {
 public:
  LogDistance(double exponent, double reference_distance_m = 1.0,
              double frequency_hz = 914e6);
  double rx_power_dbm(double tx_power_dbm, double distance_m,
                      des::Rng& rng) const override;
  double mean_rx_power_dbm(double tx_power_dbm,
                           double distance_m) const override;
  double rx_power_mw(double tx_power_mw, double distance_m,
                     des::Rng& rng) const override;
  double mean_rx_power_mw(double tx_power_mw,
                          double distance_m) const override;

 private:
  FreeSpace free_space_;
  double exponent_;
  double reference_distance_;
};

/// Rayleigh (small-scale) fading layered over a large-scale model: the
/// received *power* is scaled by an Exp(1) variate.
class RayleighFading final : public PropagationModel {
 public:
  explicit RayleighFading(std::unique_ptr<PropagationModel> large_scale);
  double rx_power_dbm(double tx_power_dbm, double distance_m,
                      des::Rng& rng) const override;
  double mean_rx_power_dbm(double tx_power_dbm,
                           double distance_m) const override;
  double rx_power_mw(double tx_power_mw, double distance_m,
                     des::Rng& rng) const override;
  double mean_rx_power_mw(double tx_power_mw,
                          double distance_m) const override;
  bool stochastic() const noexcept override { return true; }

 private:
  std::unique_ptr<PropagationModel> large_scale_;
};

/// Log-normal shadowing layered over a large-scale model: adds a zero-mean
/// Gaussian (in dB) with the given standard deviation.
class LogNormalShadowing final : public PropagationModel {
 public:
  LogNormalShadowing(std::unique_ptr<PropagationModel> large_scale,
                     double sigma_db);
  double rx_power_dbm(double tx_power_dbm, double distance_m,
                      des::Rng& rng) const override;
  double mean_rx_power_dbm(double tx_power_dbm,
                           double distance_m) const override;
  double rx_power_mw(double tx_power_mw, double distance_m,
                     des::Rng& rng) const override;
  double mean_rx_power_mw(double tx_power_mw,
                          double distance_m) const override;
  bool stochastic() const noexcept override { return true; }

 private:
  std::unique_ptr<PropagationModel> large_scale_;
  double sigma_db_;
};

/// Largest distance at which mean rx power still meets `threshold_dbm`
/// (bisection over [kMinDistanceM, max_distance_m]; 0 if unreachable even at
/// the minimum distance).
[[nodiscard]] double range_for_threshold(const PropagationModel& model,
                                         double tx_power_dbm,
                                         double threshold_dbm,
                                         double max_distance_m = 1e5);

/// Transmit power (dBm) that makes the mean rx power equal `threshold_dbm`
/// at exactly `range_m` meters.
[[nodiscard]] double tx_power_for_range(const PropagationModel& model,
                                        double range_m, double threshold_dbm);

}  // namespace rrnet::phy

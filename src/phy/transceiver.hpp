// Half-duplex transceiver state machine with cumulative-interference SINR
// reception. Owned and driven by the Channel; exposes carrier sense and
// on/off (sleep / failure) control to upper layers.
#pragma once

#include <cstdint>

#include <optional>

#include "des/scheduler.hpp"
#include "des/time.hpp"
#include "phy/energy.hpp"
#include "phy/radio.hpp"
#include "phy/units.hpp"
#include "util/pool.hpp"

namespace rrnet::phy {

/// Per-transceiver reception counters. Every arrival bumps
/// `signals_arrived` and resolves into exactly one terminal outcome
/// (decoded / collided / missed_busy / below_threshold / while_off /
/// aborted_off) — a frame being decoded when the radio switches off is
/// the aborted_off case — so
///   decoded + collided + missed_busy + below_threshold + while_off
///     + aborted_off == signals_arrived
/// holds by construction (the rx + drops == potential-receptions
/// conservation invariant checked exactly in tests/obs_test.cpp).
struct TransceiverStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t signals_arrived = 0;    ///< all arrivals, however they end
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_collided = 0;    ///< locked but SINR dropped
  std::uint64_t frames_missed_busy = 0; ///< arrived while Tx/Rx-locked
  std::uint64_t frames_below_threshold = 0;
  std::uint64_t frames_while_off = 0;
  std::uint64_t frames_aborted_off = 0; ///< decode in progress, radio cut
  std::uint64_t tx_dropped_off = 0;     ///< transmit attempts while off
  std::uint64_t tx_dropped_busy = 0;    ///< transmit attempts while Tx-busy

  TransceiverStats& operator+=(const TransceiverStats& o) noexcept {
    frames_sent += o.frames_sent;
    signals_arrived += o.signals_arrived;
    frames_decoded += o.frames_decoded;
    frames_collided += o.frames_collided;
    frames_missed_busy += o.frames_missed_busy;
    frames_below_threshold += o.frames_below_threshold;
    frames_while_off += o.frames_while_off;
    frames_aborted_off += o.frames_aborted_off;
    tx_dropped_off += o.tx_dropped_off;
    tx_dropped_busy += o.tx_dropped_busy;
    return *this;
  }
};

class Channel;

class Transceiver : public util::PoolAllocated {
 public:
  Transceiver(std::uint32_t node_id, const RadioParams& params)
      : cs_threshold_mw_(dbm_to_mw(params.cs_threshold_dbm)),
        rx_threshold_mw_(dbm_to_mw(params.rx_threshold_dbm)),
        noise_floor_mw_(dbm_to_mw(params.noise_floor_dbm)),
        sinr_threshold_ratio_(db_to_ratio(params.sinr_threshold_db)),
        node_id_(node_id) {}

  Transceiver(const Transceiver&) = delete;
  Transceiver& operator=(const Transceiver&) = delete;
  Transceiver(Transceiver&&) = default;
  Transceiver& operator=(Transceiver&&) = default;

  /// Attach the MAC; must be called before any traffic reaches this node.
  void attach(RadioListener& listener) noexcept { listener_ = &listener; }

  [[nodiscard]] std::uint32_t node_id() const noexcept { return node_id_; }
  [[nodiscard]] RadioState state() const noexcept { return state_; }
  [[nodiscard]] bool is_off() const noexcept { return state_ == RadioState::Off; }

  /// Carrier sense: true when transmitting, locked on a frame, or the total
  /// in-air power at this node exceeds the CS threshold.
  [[nodiscard]] bool medium_busy() const noexcept;

  /// Total received power currently on the air at this node (mW); exactly
  /// 0.0 on a quiet medium (the incremental sum is reset whenever the last
  /// signal ends, so carrier sense cannot drift).
  [[nodiscard]] double total_rx_power_mw() const noexcept {
    return rx_power_mw_;
  }

  /// Power the radio down: ongoing receptions are lost, and a transmission
  /// in progress is truncated (receivers will still see its full airtime;
  /// modeling early TX cut-off is not needed for the paper's failure model,
  /// which flips radios between packets at Poisson times).
  void turn_off();
  void turn_on();

  [[nodiscard]] const TransceiverStats& stats() const noexcept { return stats_; }

  /// Start metering energy by radio-state dwell time. `clock` must outlive
  /// the transceiver; metering starts at the clock's current time.
  void enable_energy(const EnergyProfile& profile, const des::Scheduler& clock);
  /// Null unless enable_energy() was called.
  [[nodiscard]] const EnergyMeter* energy_meter() const noexcept {
    return meter_.has_value() ? &*meter_ : nullptr;
  }
  /// Account the dwell time of the current state up to now (call before
  /// reading the meter at the end of a run).
  void finalize_energy();

 private:
  friend class Channel;

  /// The token signal_arrives returns while the radio is off; no epoch
  /// ever takes this value.
  static constexpr std::uint32_t kStaleToken = ~0u;

  // Channel-driven events.
  void begin_transmit(std::uint64_t frame_id);
  void end_transmit(std::uint64_t frame_id, des::Time now);
  /// Returns a token for the signal: the current off-epoch, or kStaleToken
  /// when the radio is off. The channel hands it back to signal_ends.
  /// Power is in mW — the whole arrival path (threshold, SINR, running
  /// total) runs in the linear domain; dBm reappears only in the
  /// decode-time RxInfo.
  std::uint32_t signal_arrives(const Airframe& frame, double power_mw,
                               des::Time now);
  /// `token` is the value signal_arrives returned and `power_mw` the power
  /// it was given. A token from before the last turn_off (or from while
  /// off) names a signal that turn_off already dropped, so it is ignored.
  void signal_ends(const Airframe& frame, std::uint32_t token,
                   double power_mw, des::Time now);

  /// Switch radio state, accounting the dwell time of the old state.
  void set_state(RadioState next);
  void recompute_busy();
  /// Noise floor plus everything on the air except a signal of power
  /// `own_mw`. O(1): one subtraction from the running total.
  [[nodiscard]] double interference_mw_excluding_own(double own_mw) const noexcept;
  /// SINR gate in the linear domain (one divide; no pow/log per event).
  [[nodiscard]] bool sinr_clears_threshold(double signal_mw) const noexcept;

  // Hot fields first: every signal start and end reads the thresholds,
  // the radio state and the in-air scalars. The thresholds are
  // linear-domain constants, converted once: carrier sense, SINR gating,
  // and noise addition run per signal event, and a pow() per comparison is
  // the difference between O(1) bookkeeping and a transcendental call
  // dominating the dense-flood hot path.
  double cs_threshold_mw_;
  double rx_threshold_mw_;
  double noise_floor_mw_;
  double sinr_threshold_ratio_;
  RadioListener* listener_ = nullptr;
  // Signals on the air here, as three scalars: their summed power, how
  // many there are, and the off-epoch they arrived in. turn_off drops them
  // all by zeroing the first two and bumping the epoch, so an end whose
  // token is not the current epoch belongs to a signal already dropped.
  // Frame ids are never reused, so a per-signal slot could tell no more.
  double rx_power_mw_ = 0.0;
  std::uint32_t signals_on_air_ = 0;
  std::uint32_t epoch_ = 0;

  std::uint32_t node_id_;
  RadioState state_ = RadioState::Idle;
  bool last_busy_ = false;
  // Locked (being-decoded) frame bookkeeping.
  bool has_lock_ = false;
  bool lock_corrupted_ = false;
  std::uint64_t locked_frame_ = 0;
  double locked_power_mw_ = 0.0;  ///< RxInfo converts to dBm at decode
  des::Time locked_start_ = 0.0;
  TransceiverStats stats_;
  // Cold: the transmit and energy fields.
  std::uint64_t tx_frame_ = 0;
  const des::Scheduler* clock_ = nullptr;
  std::optional<EnergyMeter> meter_;
};

}  // namespace rrnet::phy

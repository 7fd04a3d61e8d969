#include "phy/transceiver.hpp"

#include "obs/trace.hpp"
#include "phy/units.hpp"
#include "util/contracts.hpp"

namespace rrnet::phy {

bool Transceiver::medium_busy() const noexcept {
  if (state_ == RadioState::Tx || (state_ == RadioState::Rx && has_lock_)) {
    return true;
  }
  return rx_power_mw_ >= cs_threshold_mw_;
}

void Transceiver::recompute_busy() {
  const bool busy = medium_busy();
  if (busy != last_busy_) {
    last_busy_ = busy;
    if (listener_ != nullptr && state_ != RadioState::Off) {
      listener_->on_medium_changed(busy);
    }
  }
}

double Transceiver::interference_mw_excluding_own(
    double own_mw) const noexcept {
  // The running total makes exclusion a single subtraction, so SINR
  // evaluation is O(1) even when §3 floods pile tens of concurrent signals
  // onto a receiver. Clamp: subtracting the sole signal's own power from
  // the incremental total can round a hair below zero.
  const double others_mw = rx_power_mw_ - own_mw;
  return noise_floor_mw_ + (others_mw > 0.0 ? others_mw : 0.0);
}

bool Transceiver::sinr_clears_threshold(double signal_mw) const noexcept {
  // signal/interference >= ratio, multiplied through: both sides positive,
  // and the linear-domain compare spends a multiply where the dB form
  // spent a log10 per reception decision.
  return signal_mw >=
         sinr_threshold_ratio_ * interference_mw_excluding_own(signal_mw);
}

void Transceiver::begin_transmit(std::uint64_t frame_id) {
  RRNET_ASSERT(state_ == RadioState::Idle || state_ == RadioState::Rx);
  // Half-duplex: starting a transmission abandons any reception in progress.
  if (has_lock_) {
    has_lock_ = false;
    lock_corrupted_ = false;
    ++stats_.frames_collided;
  }
  set_state(RadioState::Tx);
  tx_frame_ = frame_id;
  ++stats_.frames_sent;
  recompute_busy();
}

void Transceiver::end_transmit(std::uint64_t frame_id, des::Time /*now*/) {
  if (state_ != RadioState::Tx || tx_frame_ != frame_id) {
    return;  // radio was turned off mid-transmission
  }
  set_state(RadioState::Idle);
  if (listener_ != nullptr) listener_->on_tx_done(frame_id);
  recompute_busy();
}

std::uint32_t Transceiver::signal_arrives(const Airframe& frame,
                                          double power_mw, des::Time now) {
  ++stats_.signals_arrived;
  if (state_ == RadioState::Off) {
    ++stats_.frames_while_off;
    RRNET_TRACE_EVENT(obs::EventKind::PhyDrop, now, node_id_, frame.id,
                      obs::DropReason::RadioOff);
    return kStaleToken;
  }
  ++signals_on_air_;
  rx_power_mw_ += power_mw;

  const bool decodable = power_mw >= rx_threshold_mw_;
  if (decodable && state_ == RadioState::Idle && !has_lock_) {
    if (sinr_clears_threshold(power_mw)) {
      // Lock onto this frame.
      set_state(RadioState::Rx);
      has_lock_ = true;
      lock_corrupted_ = false;
      locked_frame_ = frame.id;
      locked_power_mw_ = power_mw;
      locked_start_ = now;
    } else {
      ++stats_.frames_collided;
      RRNET_TRACE_EVENT(obs::EventKind::PhyDrop, now, node_id_, frame.id,
                        obs::DropReason::Collision);
    }
  } else if (decodable) {
    ++stats_.frames_missed_busy;
    RRNET_TRACE_EVENT(obs::EventKind::PhyDrop, now, node_id_, frame.id,
                      obs::DropReason::RxWhileBusy);
  } else {
    ++stats_.frames_below_threshold;
    RRNET_TRACE_EVENT(obs::EventKind::PhyDrop, now, node_id_, frame.id,
                      obs::DropReason::BelowSensitivity);
  }

  // New interference may corrupt the frame currently being decoded. The
  // locked signal is in the total at exactly locked_power_mw_ (the same
  // converted value), so excluding it by value is exact.
  if (has_lock_ && !lock_corrupted_ && locked_frame_ != frame.id) {
    if (!sinr_clears_threshold(locked_power_mw_)) {
      lock_corrupted_ = true;
    }
  }
  recompute_busy();
  return epoch_;
}

void Transceiver::signal_ends(const Airframe& frame, std::uint32_t token,
                              double power_mw, des::Time now) {
  if (token != epoch_) {
    return;  // arrived while off, or dropped by an off/on cycle since
  }
  if (--signals_on_air_ == 0) {
    rx_power_mw_ = 0.0;  // exact: no residue survives a quiet medium
  } else {
    rx_power_mw_ -= power_mw;
    // -= of previously += values can round below zero on the last few
    // signals; the reset above restores exact zero.
    if (rx_power_mw_ < 0.0) rx_power_mw_ = 0.0;
  }

  if (has_lock_ && locked_frame_ == frame.id) {
    const bool ok = !lock_corrupted_;
    has_lock_ = false;
    lock_corrupted_ = false;
    if (state_ == RadioState::Rx) set_state(RadioState::Idle);
    if (ok) {
      ++stats_.frames_decoded;
      RRNET_TRACE_EVENT(obs::EventKind::PhyRxDecoded, now, node_id_, frame.id,
                        0);
      if (listener_ != nullptr) {
        // The only mW -> dBm conversion on the reception path: once per
        // decoded frame, not once per arrival.
        listener_->on_receive(
            frame, RxInfo{mw_to_dbm(locked_power_mw_), locked_start_, now});
      }
    } else {
      ++stats_.frames_collided;
      RRNET_TRACE_EVENT(obs::EventKind::PhyDrop, now, node_id_, frame.id,
                        obs::DropReason::Collision);
    }
  }
  recompute_busy();
}

void Transceiver::turn_off() {
  if (state_ == RadioState::Off) return;
  const bool was_tx = state_ == RadioState::Tx;
  const std::uint64_t tx_frame = tx_frame_;
  // Dropping the signals on the air severs every in-flight reception. Only
  // the locked frame still owes a terminal outcome — every other signal
  // got its drop counter at arrival — so account the aborted decode here
  // or the conservation invariant (decoded + drops == arrived) leaks.
  if (has_lock_) {
    ++stats_.frames_aborted_off;
    RRNET_TRACE_EVENT(obs::EventKind::PhyDrop,
                      clock_ != nullptr ? clock_->now() : 0.0, node_id_,
                      locked_frame_, obs::DropReason::RadioOff);
  }
  signals_on_air_ = 0;
  rx_power_mw_ = 0.0;
  ++epoch_;  // the dropped signals' ends now carry a stale token
  RRNET_ASSERT(epoch_ != kStaleToken);
  has_lock_ = false;
  lock_corrupted_ = false;
  set_state(RadioState::Off);
  last_busy_ = false;
  // A transmission cut short still ends from the MAC's perspective; without
  // this the MAC would wait forever for a tx-done that never comes.
  if (was_tx && listener_ != nullptr) listener_->on_tx_done(tx_frame);
}

void Transceiver::turn_on() {
  if (state_ != RadioState::Off) return;
  set_state(RadioState::Idle);
  last_busy_ = false;
  // Kick the MAC: it may have been parked in WaitIdle since before the
  // outage, and no medium edge will arrive on a quiet channel.
  if (listener_ != nullptr) listener_->on_medium_changed(false);
}

void Transceiver::set_state(RadioState next) {
  if (meter_.has_value()) meter_->account(state_, clock_->now());
  state_ = next;
}

void Transceiver::enable_energy(const EnergyProfile& profile,
                                const des::Scheduler& clock) {
  clock_ = &clock;
  meter_.emplace(profile, clock.now());
}

void Transceiver::finalize_energy() {
  if (meter_.has_value()) meter_->account(state_, clock_->now());
}

}  // namespace rrnet::phy

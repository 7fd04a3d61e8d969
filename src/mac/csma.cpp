#include "mac/csma.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace rrnet::mac {

CsmaMac::CsmaMac(phy::Channel& channel, std::uint32_t node_id,
                 MacParams params, des::Rng rng, MacListener& listener)
    : channel_(&channel),
      scheduler_(&channel.scheduler()),
      node_id_(node_id),
      params_(params),
      rng_(rng),
      listener_(&listener),
      queue_(params.queue_capacity, params.priority_queue),
      backoff_timer_(channel.scheduler()),
      difs_timer_(channel.scheduler()),
      ack_timer_(channel.scheduler()),
      nav_timer_(channel.scheduler()) {
  RRNET_EXPECTS(params.cw_min > 0);
  RRNET_EXPECTS(params.cw_max >= params.cw_min);
  channel_->transceiver(node_id_).attach(*this);
}

void CsmaMac::send(std::uint32_t dst, net::PacketRef packet,
                   std::uint32_t payload_bytes, double priority) {
  Frame frame;
  frame.kind = FrameKind::Data;
  frame.src = node_id_;
  frame.dst = dst;
  frame.sequence = next_sequence_++;
  frame.size_bytes = payload_bytes + kMacHeaderBytes;
  frame.payload = std::move(packet);
  if (!queue_.push(QueuedFrame{frame, priority})) {
    ++stats_.queue_drops;
    RRNET_TRACE_EVENT(obs::EventKind::MacDrop, scheduler_->now(), node_id_,
                      frame.payload ? frame.payload.uid() : 0u,
                      obs::DropReason::QueueOverflow);
    listener_->mac_send_done(frame, false);
    return;
  }
  if (state_ == TxState::Idle) serve_next();
}

void CsmaMac::serve_next() {
  RRNET_ASSERT(state_ == TxState::Idle);
  RRNET_ASSERT(!current_.has_value());
  auto next = queue_.pop();
  if (!next.has_value()) return;
  current_ = std::move(next);
  attempt_ = 0;
  cw_ = params_.cw_min;
  slots_left_ = 0;
  begin_attempt();
}

void CsmaMac::begin_attempt() {
  const phy::Transceiver& radio = channel_->transceiver(node_id_);
  if (radio.is_off()) {
    ++stats_.tx_dropped_radio_off;
    finish_current(false);
    return;
  }
  if (radio.medium_busy() || nav_blocked()) {
    if (nav_blocked()) ++stats_.nav_deferrals;
    state_ = TxState::WaitIdle;
    return;
  }
  start_difs();
}

void CsmaMac::start_difs() {
  state_ = TxState::Difs;
  difs_timer_.start(params_.difs, [this]() { start_backoff(); });
}

void CsmaMac::start_backoff() {
  if (slots_left_ == 0) {
    slots_left_ = static_cast<std::uint32_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cw_) - 1));
    ++stats_.backoffs;
    stats_.backoff_slots.observe(slots_left_);
  }
  state_ = TxState::Backoff;
  if (slots_left_ == 0) {
    transmit_current();
    return;
  }
  backoff_timer_.start(params_.slot_time, [this]() {
    --slots_left_;
    if (slots_left_ == 0) {
      transmit_current();
    } else {
      start_backoff();
    }
  });
}

void CsmaMac::pause_backoff() {
  backoff_timer_.cancel();
  difs_timer_.cancel();
  state_ = TxState::WaitIdle;
}

bool CsmaMac::nav_blocked() const noexcept {
  return scheduler_->now() < nav_until_;
}

bool CsmaMac::uses_rts(const Frame& frame) const noexcept {
  return params_.rts_cts && !is_broadcast(frame) &&
         frame.size_bytes >= params_.rts_threshold_bytes;
}

void CsmaMac::observe_nav(const Frame& frame, des::Time frame_end) {
  const des::Time until = frame_end + frame.nav_duration;
  if (until <= nav_until_) return;
  nav_until_ = until;
  if (state_ == TxState::Difs || state_ == TxState::Backoff) {
    ++stats_.nav_deferrals;
    pause_backoff();
  }
  nav_timer_.start(nav_until_ - scheduler_->now(), [this]() {
    // Virtual carrier released: resume a parked attempt if the physical
    // medium is also quiet.
    if (state_ == TxState::WaitIdle && current_.has_value() &&
        !channel_->transceiver(node_id_).medium_busy()) {
      start_difs();
    }
  });
}

void CsmaMac::transmit_current() {
  RRNET_ASSERT(current_.has_value());
  const phy::Transceiver& radio = channel_->transceiver(node_id_);
  if (radio.is_off()) {
    ++stats_.tx_dropped_radio_off;
    finish_current(false);
    return;
  }
  if (radio.state() == phy::RadioState::Tx) {
    // Our own ACK is still on the air; retry one slot later.
    slots_left_ = 1;
    state_ = TxState::Backoff;
    backoff_timer_.start(params_.slot_time, [this]() { transmit_current(); });
    return;
  }
  air_current(uses_rts(current_->frame));
}

void CsmaMac::transmit_data_now() {
  // The medium is reserved for us (CTS in hand): send after SIFS without a
  // fresh contention round.
  state_ = TxState::Transmitting;
  scheduler_->schedule_in(params_.sifs, [this]() {
    if (!current_.has_value()) return;
    if (channel_->transceiver(node_id_).is_off()) {
      ++stats_.tx_dropped_radio_off;
      finish_current(false);
      return;
    }
    air_current(/*rts=*/false);
  });
}

void CsmaMac::air_current(bool rts) {
  RRNET_ASSERT(current_.has_value());
  if (!air(rts ? rts_for(current_->frame) : current_->frame)) {
    ++stats_.tx_dropped_radio_off;
    finish_current(false);
    return;
  }
  tx_is_ack_ = false;
  tx_is_rts_ = rts;
  ++(rts ? stats_.rts_tx : stats_.data_tx);
  state_ = TxState::Transmitting;
}

Frame CsmaMac::rts_for(const Frame& data) const {
  const phy::RadioParams& radio = channel_->params();
  Frame rts;
  rts.kind = FrameKind::Rts;
  rts.src = node_id_;
  rts.dst = data.dst;
  rts.sequence = data.sequence;
  rts.size_bytes = kRtsBytes;
  // Reserve the medium for CTS + DATA + ACK plus the three SIFS gaps.
  rts.nav_duration = 3.0 * params_.sifs + radio.airtime(kCtsBytes) +
                     radio.airtime(data.size_bytes) + radio.airtime(kAckBytes);
  return rts;
}

bool CsmaMac::air(Frame frame) {
  phy::Airframe air;
  air.id = channel_->next_frame_id(node_id_);
  air.sender = node_id_;
  air.size_bytes = frame.size_bytes;
  air.frame = std::move(frame);
  if (!channel_->transmit(air)) return false;
  airframe_id_ = air.id;
  return true;
}

void CsmaMac::send_cts(const Frame& rts) {
  scheduler_->schedule_in(params_.sifs, [this, src = rts.src,
                                         seq = rts.sequence,
                                         nav = rts.nav_duration]() {
    const phy::Transceiver& radio = channel_->transceiver(node_id_);
    if (radio.is_off() || radio.state() == phy::RadioState::Tx) return;
    // A CTS is a promise of a quiet medium: refuse while any reservation —
    // including one we granted ourselves — is still standing, or two hidden
    // senders end up with overlapping grants that guarantee a collision.
    if (nav_blocked()) return;
    Frame cts;
    cts.kind = FrameKind::Cts;
    cts.src = node_id_;
    cts.dst = src;
    cts.sequence = seq;
    cts.size_bytes = kCtsBytes;
    const double consumed =
        params_.sifs + channel_->params().airtime(kCtsBytes);
    cts.nav_duration = nav > consumed ? nav - consumed : 0.0;
    if (air(cts)) {
      tx_is_ack_ = true;  // fire-and-forget, like an ACK
      ++stats_.cts_tx;
      // Reserve ourselves for the granted exchange.
      nav_until_ = std::max(nav_until_,
                            scheduler_->now() +
                                channel_->params().airtime(kCtsBytes) +
                                cts.nav_duration);
    }
  });
}

des::Time CsmaMac::ack_timeout() const noexcept {
  // SIFS + ACK airtime + generous propagation/turnaround slack.
  return params_.sifs + channel_->params().airtime(kAckBytes) + 100e-6;
}

void CsmaMac::on_tx_done(std::uint64_t frame_id) {
  if (tx_is_ack_ && frame_id == airframe_id_) {
    tx_is_ack_ = false;
    return;  // medium-idle edge will resume any paused attempt
  }
  if (state_ != TxState::Transmitting || frame_id != airframe_id_) return;
  RRNET_ASSERT(current_.has_value());
  if (tx_is_rts_) {
    tx_is_rts_ = false;
    state_ = TxState::AwaitCts;
    const des::Time cts_timeout =
        params_.sifs + channel_->params().airtime(kCtsBytes) + 100e-6;
    ack_timer_.start(cts_timeout, [this]() {
      ++stats_.cts_timeouts;
      handle_ack_timeout();
    });
    return;
  }
  if (is_broadcast(current_->frame)) {
    finish_current(true);
    return;
  }
  state_ = TxState::AwaitAck;
  ack_timer_.start(ack_timeout(), [this]() { handle_ack_timeout(); });
}

void CsmaMac::handle_ack_timeout() {
  RRNET_ASSERT(current_.has_value());
  ++attempt_;
  if (attempt_ > params_.max_retries) {
    ++stats_.unicast_failures;
    RRNET_TRACE_EVENT(obs::EventKind::MacDrop, scheduler_->now(), node_id_,
                      current_->frame.payload ? current_->frame.payload.uid()
                                              : 0u,
                      obs::DropReason::RetriesExhausted);
    finish_current(false);
    return;
  }
  ++stats_.retries;
  cw_ = std::min(cw_ * 2, params_.cw_max);
  slots_left_ = 0;
  begin_attempt();
}

void CsmaMac::finish_current(bool success) {
  RRNET_ASSERT(current_.has_value());
  const Frame frame = current_->frame;
  current_.reset();
  backoff_timer_.cancel();
  difs_timer_.cancel();
  ack_timer_.cancel();
  state_ = TxState::Idle;
  listener_->mac_send_done(frame, success);
  // The listener may have synchronously enqueued (and begun serving) another
  // frame from inside mac_send_done; only pull from the queue if not.
  if (state_ == TxState::Idle && !current_.has_value()) serve_next();
}

void CsmaMac::send_ack(const Frame& data_frame) {
  scheduler_->schedule_in(params_.sifs, [this, src = data_frame.src,
                                         seq = data_frame.sequence]() {
    const phy::Transceiver& radio = channel_->transceiver(node_id_);
    if (radio.is_off() || radio.state() == phy::RadioState::Tx) return;
    Frame ack;
    ack.kind = FrameKind::Ack;
    ack.src = node_id_;
    ack.dst = src;
    ack.sequence = seq;
    ack.size_bytes = kAckBytes;
    if (air(std::move(ack))) {
      tx_is_ack_ = true;
      ++stats_.ack_tx;
    }
  });
}

void CsmaMac::on_receive(const phy::Airframe& air, const phy::RxInfo& info) {
  const Frame& frame = air.frame;
  if (frame.kind == FrameKind::Rts) {
    if (frame.dst == node_id_) {
      send_cts(frame);
    } else {
      observe_nav(frame, info.rx_end);
    }
    return;
  }
  if (frame.kind == FrameKind::Cts) {
    if (frame.dst == node_id_) {
      if (state_ == TxState::AwaitCts && current_.has_value() &&
          frame.sequence == current_->frame.sequence &&
          frame.src == current_->frame.dst) {
        ack_timer_.cancel();
        transmit_data_now();
      }
    } else {
      observe_nav(frame, info.rx_end);
    }
    return;
  }
  if (frame.kind == FrameKind::Ack) {
    if (frame.dst == node_id_ && state_ == TxState::AwaitAck &&
        current_.has_value() && frame.sequence == current_->frame.sequence &&
        frame.src == current_->frame.dst) {
      ack_timer_.cancel();
      finish_current(true);
    }
    return;
  }
  const bool for_us = frame.dst == node_id_ || is_broadcast(frame);
  if (frame.dst == node_id_) send_ack(frame);
  listener_->mac_receive(frame, info, for_us);
}

void CsmaMac::on_medium_changed(bool busy) {
  if (busy) {
    if (state_ == TxState::Difs || state_ == TxState::Backoff) {
      pause_backoff();
    }
    return;
  }
  if (state_ == TxState::WaitIdle && current_.has_value() && !nav_blocked()) {
    // The physical medium cleared; the virtual one (NAV) must agree too —
    // nav_timer_ resumes us otherwise.
    start_difs();
  }
}

}  // namespace rrnet::mac

#include "phy/channel.hpp"

#include "obs/trace.hpp"
#include "phy/units.hpp"
#include "util/contracts.hpp"

namespace rrnet::phy {

Channel::Channel(des::Scheduler& scheduler, const geom::Terrain& terrain,
                 std::unique_ptr<PropagationModel> model, RadioParams params,
                 std::vector<geom::Vec2> positions, des::Rng rng)
    : scheduler_(&scheduler),
      model_(std::move(model)),
      params_(params),
      nominal_range_(range_for_threshold(*model_, params.tx_power_dbm,
                                         params.rx_threshold_dbm,
                                         terrain.diameter())),
      interference_range_(range_for_threshold(*model_, params.tx_power_dbm,
                                              params.interference_cutoff_dbm,
                                              terrain.diameter())),
      receiver_table_(terrain, positions, interference_range_, *model_,
                      dbm_to_mw(params.tx_power_dbm),
                      dbm_to_mw(params.interference_cutoff_dbm), rng),
      layout_order_(receiver_table_.cell_order()) {
  const std::size_t n = receiver_table_.size();
  RRNET_EXPECTS(n > 0);
  frame_counters_.assign(n, 0);
  // Built in layout order, so the pools hand radio neighbours nearby
  // addresses.
  transceivers_.resize(n);
  for (const std::uint32_t id : layout_order_) {
    transceivers_[id] = std::make_unique<Transceiver>(id, params_);
    // Channel-owned transceivers can always timestamp their own events
    // (turn_off drop records); enable_energy() re-sets the same clock.
    transceivers_[id]->clock_ = scheduler_;
  }
}

Channel::~Channel() {
  // Retire transmission records to the thread's spare pool so the next run
  // built on this thread starts with warmed receiver-list capacity. Clear
  // payload handles here, on the owning thread — refcounts are non-atomic.
  auto& spare = spare_transmissions();
  constexpr std::size_t kMaxSpare = 256;
  for (auto& tx : transmissions_) {
    if (!tx || spare.size() >= kMaxSpare) break;
    tx->frame = Airframe{};
    tx->receivers.clear();
    tx->next_start = 0;
    tx->next_end = 0;
    spare.push_back(std::move(tx));
  }
  // Freed in layout order, so the pools' free lists stay address-sorted for
  // the next run built on this thread.
  for (const std::uint32_t id : layout_order_) transceivers_[id].reset();
}

std::vector<std::unique_ptr<Channel::Transmission>>&
Channel::spare_transmissions() {
  static thread_local std::vector<std::unique_ptr<Transmission>> pool;
  return pool;
}

Transceiver& Channel::transceiver(std::uint32_t id) {
  RRNET_EXPECTS(id < transceivers_.size());
  return *transceivers_[id];
}

const Transceiver& Channel::transceiver(std::uint32_t id) const {
  RRNET_EXPECTS(id < transceivers_.size());
  return *transceivers_[id];
}

ChannelStats Channel::stats() const noexcept {
  ChannelStats sums;
  for (const std::uint32_t id : layout_order_) {
    sums.transmissions += transceivers_[id]->stats().frames_sent;
    sums.deliveries += transceivers_[id]->stats().frames_decoded;
  }
  return sums;
}

geom::Vec2 Channel::position(std::uint32_t id) const {
  return receiver_table_.position(id);
}

void Channel::set_position(std::uint32_t id, geom::Vec2 position) {
  RRNET_EXPECTS(id < transceivers_.size());
  receiver_table_.set_position(id, position);
}

bool Channel::transmit(const Airframe& frame) {
  RRNET_EXPECTS(frame.sender < transceivers_.size());
  Transceiver& sender = *transceivers_[frame.sender];
  if (sender.is_off()) {
    ++sender.stats_.tx_dropped_off;
    return false;
  }
  if (sender.state() == RadioState::Tx) {
    ++sender.stats_.tx_dropped_busy;
    RRNET_TRACE_EVENT(obs::EventKind::PhyDrop, scheduler_->now(),
                      frame.sender, frame.id, obs::DropReason::TxWhileBusy);
    return false;
  }

  const des::Time now = scheduler_->now();
  const des::Time duration = params_.airtime(frame.size_bytes);
  sender.begin_transmit(frame.id);
  RRNET_TRACE_EVENT(obs::EventKind::PhyTxStart, now, frame.sender, frame.id,
                    0);
  scheduler_->schedule_in(duration, [this, id = frame.id, s = frame.sender]() {
    RRNET_TRACE_EVENT(obs::EventKind::PhyTxEnd, scheduler_->now(), s, id, 0);
    transceivers_[s]->end_transmit(id, scheduler_->now());
  });

  const std::uint32_t slot = acquire_transmission();
  Transmission& tx = *transmissions_[slot];
  tx.frame = frame;
  tx.duration = duration;
  // Powers and arrivals are pinned here, so signals in flight ignore later
  // mobility. The per-sender frame counter (the low half of frame.id) keys
  // the fading draws.
  receiver_table_.fill(frame.sender, now, frame.id & 0xFFFFFFFFULL,
                       tx.receivers);
  if (tx.receivers.empty()) {
    release_transmission(slot);
    return true;
  }
  scheduler_->schedule_at(tx.receivers.front().arrival,
                          [this, slot]() { advance_transmission(slot); });
  return true;
}

void Channel::advance_transmission(std::uint32_t slot) {
  Transmission& tx = *transmissions_[slot];
  des::Time now = scheduler_->now();
  for (;;) {
    const bool has_start = tx.next_start < tx.receivers.size();
    const bool has_end = tx.next_end < tx.receivers.size();
    if (!has_start && !has_end) break;
    // End times are spelled `arrival + duration` in both places below, so
    // the merge compares bitwise-equal doubles.
    const bool do_start =
        has_start &&
        (!has_end || tx.receivers[tx.next_start].arrival <=
                         tx.receivers[tx.next_end].arrival + tx.duration);
    const des::Time due = do_start
                              ? tx.receivers[tx.next_start].arrival
                              : tx.receivers[tx.next_end].arrival + tx.duration;
    if (due > now) {
      // Nothing else due first: carry on as the next walker event instead
      // of a queue round trip (the scheduler advances its clock).
      if (scheduler_->run_next_inline(due)) {
        now = due;
        continue;
      }
      scheduler_->schedule_at(due,
                              [this, slot]() { advance_transmission(slot); });
      return;
    }
    if (do_start) {
      prefetch_ahead(tx, tx.next_start);
      PendingRx& rx = tx.receivers[tx.next_start++];
      Transceiver& trx = *transceivers_[rx.rx_id];
      rx.token = trx.signal_arrives(tx.frame, rx.power_mw, now);
    } else {
      prefetch_ahead(tx, tx.next_end);
      const PendingRx& rx = tx.receivers[tx.next_end++];
      Transceiver& trx = *transceivers_[rx.rx_id];
      trx.signal_ends(tx.frame, rx.token, rx.power_mw, now);
    }
  }
  release_transmission(slot);
}

void Channel::prefetch_ahead(const Transmission& tx,
                             std::size_t i) const noexcept {
  const std::vector<PendingRx>& rx = tx.receivers;
  if (i + kPrefetchAhead < rx.size()) {
    __builtin_prefetch(transceivers_[rx[i + kPrefetchAhead].rx_id].get());
  }
  if (i + 2 * kPrefetchAhead < rx.size()) {
    __builtin_prefetch(&transceivers_[rx[i + 2 * kPrefetchAhead].rx_id]);
  }
}

std::uint32_t Channel::acquire_transmission() {
  if (!free_transmissions_.empty()) {
    const std::uint32_t slot = free_transmissions_.back();
    free_transmissions_.pop_back();
    return slot;
  }
  auto& spare = spare_transmissions();
  if (!spare.empty()) {
    transmissions_.push_back(std::move(spare.back()));
    spare.pop_back();
  } else {
    transmissions_.push_back(std::make_unique<Transmission>());
  }
  return static_cast<std::uint32_t>(transmissions_.size() - 1);
}

void Channel::release_transmission(std::uint32_t slot) {
  Transmission& tx = *transmissions_[slot];
  tx.frame = Airframe{};  // drop the payload handle now, not at slot reuse
  tx.receivers.clear();   // keeps capacity for the next broadcast
  tx.next_start = 0;
  tx.next_end = 0;
  free_transmissions_.push_back(slot);
}

}  // namespace rrnet::phy

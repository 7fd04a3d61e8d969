// Shared broadcast medium: delivers each transmission to every transceiver
// within the interference range, after per-receiver propagation delay, with
// per-receiver received power drawn from the propagation model.
//
// Receiver scheduling is fused: instead of two scheduler events per
// receiver (signal start + signal end), each transmission owns a pooled
// Transmission record holding its receiver list sorted by arrival, and a
// single self-rescheduling walker event advances a two-pointer merge of
// the start stream (arrival_i) and the end stream (arrival_i + duration).
// The heap holds at most one entry per transmission in flight instead of
// O(receivers), which keeps it shallow exactly when §3 floods make
// neighborhoods dense. When nothing else is due before its next start/end,
// the walker takes the scheduler's inline hand-off and runs it in the same
// call, so most receiver edges cost no queue operation at all. The list
// comes from phy::ReceiverTable, sorted by (arrival, receiver id); starts
// go before ends at equal timestamps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "phy/receiver_table.hpp"
#include "phy/transceiver.hpp"

namespace rrnet::phy {

/// Channel-wide counters: the transceivers' frames_sent and frames_decoded,
/// summed.
struct ChannelStats {
  std::uint64_t transmissions = 0;  ///< frames put on the air
  std::uint64_t deliveries = 0;     ///< successful (frame, receiver) decodes
};

class Channel {
 public:
  /// `positions[i]` is the location of node i; one transceiver is created
  /// per node. The scheduler, model, and params must outlive the channel.
  Channel(des::Scheduler& scheduler, const geom::Terrain& terrain,
          std::unique_ptr<PropagationModel> model, RadioParams params,
          std::vector<geom::Vec2> positions, des::Rng rng);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel();

  [[nodiscard]] std::size_t node_count() const noexcept {
    return transceivers_.size();
  }
  [[nodiscard]] Transceiver& transceiver(std::uint32_t id);
  [[nodiscard]] const Transceiver& transceiver(std::uint32_t id) const;
  [[nodiscard]] geom::Vec2 position(std::uint32_t id) const;
  [[nodiscard]] const RadioParams& params() const noexcept { return params_; }
  [[nodiscard]] const PropagationModel& model() const noexcept { return *model_; }
  [[nodiscard]] des::Scheduler& scheduler() const noexcept { return *scheduler_; }

  /// Every node id once, in the order per-node objects are built, laid out
  /// and walked: the spatial grid's cells row-major at the interference
  /// range, ids ascending inside a cell. Fixed at construction; mobility
  /// does not change it.
  [[nodiscard]] const std::vector<std::uint32_t>& layout_order() const noexcept {
    return layout_order_;
  }

  /// Start transmitting `frame` from `frame.sender`. Returns false (and
  /// drops the frame) if that radio is off or already transmitting.
  bool transmit(const Airframe& frame);

  /// Distance at which the mean rx power equals the rx threshold — the
  /// nominal transmission range of every node.
  [[nodiscard]] double nominal_range_m() const noexcept { return nominal_range_; }
  /// Distance beyond which signals are ignored entirely (below the noise
  /// floor at mean power; they could not move any SINR perceptibly).
  [[nodiscard]] double interference_range_m() const noexcept {
    return interference_range_;
  }

  /// Walks every transceiver; per-run reports read the same sums from
  /// net::Network::snapshot_metrics instead.
  [[nodiscard]] ChannelStats stats() const noexcept;

  /// Fresh unique frame id for a frame sent by `sender` (MACs stamp
  /// outgoing frames with this). Ids are (sender << 32) | per-sender
  /// counter, so the sequence a node draws is independent of every other
  /// node's transmissions.
  [[nodiscard]] std::uint64_t next_frame_id(std::uint32_t sender) noexcept {
    RRNET_EXPECTS(sender < frame_counters_.size());
    return (static_cast<std::uint64_t>(sender) << 32) |
           ++frame_counters_[sender];
  }

  /// Move a node (mobility models). Takes effect for transmissions that
  /// start after the call; signals already in flight keep the powers
  /// computed at their transmit time.
  void set_position(std::uint32_t id, geom::Vec2 position);

 private:
  /// One in-flight broadcast: the frame plus its receiver list, sorted by
  /// arrival, with two cursors merging the start and end streams. Slots are
  /// unique_ptr so references stay stable when a re-entrant transmit()
  /// grows the slot vector.
  struct Transmission {
    Airframe frame;
    des::Time duration = 0.0;
    std::vector<PendingRx> receivers;
    std::size_t next_start = 0;
    std::size_t next_end = 0;
  };

  /// Process every start/end due now for the transmission in `slot`, then
  /// run on inline or re-schedule for the next due time (or retire the
  /// slot when done). transmit() always schedules the first arrival: the
  /// sending MAC is still mid-handler when transmit() returns.
  void advance_transmission(std::uint32_t slot);
  /// The receiver list is complete when the frame starts, so each cursor
  /// fetches ahead of itself: receiver i + k's transceiver, and receiver
  /// i + 2k's pointer to it, which the fetch for i + k reads later.
  /// Prefetches change no result.
  void prefetch_ahead(const Transmission& tx, std::size_t i) const noexcept;
  static constexpr std::size_t kPrefetchAhead = 6;
  std::uint32_t acquire_transmission();
  void release_transmission(std::uint32_t slot);

  /// Thread-local pool of retired Transmission records (receiver-list
  /// capacity retained). Channels are built and torn down once per run, so
  /// without this every run re-grows every receiver vector from scratch;
  /// with it, warm runs on the same thread are allocation-free here.
  static std::vector<std::unique_ptr<Transmission>>& spare_transmissions();

  des::Scheduler* scheduler_;
  std::unique_ptr<PropagationModel> model_;
  RadioParams params_;
  double nominal_range_;
  double interference_range_;
  ReceiverTable receiver_table_;
  // A copy: mobility recompacts the grid's order, but objects stay put.
  std::vector<std::uint32_t> layout_order_;
  std::vector<std::unique_ptr<Transceiver>> transceivers_;  ///< by id
  std::vector<std::uint32_t> frame_counters_;  ///< per-sender frame-id counters
  std::vector<std::unique_ptr<Transmission>> transmissions_;
  std::vector<std::uint32_t> free_transmissions_;
};

}  // namespace rrnet::phy

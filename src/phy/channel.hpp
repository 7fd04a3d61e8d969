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
// call, so most receiver edges cost no queue operation at all. Start/end
// interleaving, power draws (grid-query order at transmit time), and
// same-timestamp ordering (starts before ends; equal arrivals in query
// order) are preserved bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "geom/spatial_grid.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "phy/transceiver.hpp"

namespace rrnet::phy {

/// Channel-wide counters (all nodes aggregated).
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

  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }

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
  struct PendingRx {
    des::Time arrival;     ///< absolute signal-start time at this receiver
    double power_mw;       ///< drawn from the model at transmit time (linear)
    std::uint32_t rx_id;
    std::uint32_t order;   ///< grid-query index; tie-break for equal arrivals
    std::uint32_t slot;    ///< receiver's SignalMap slot, set at signal start
    bool could_decode;     ///< evaluated at signal start (radio state then)
  };

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
  std::uint32_t acquire_transmission();
  void release_transmission(std::uint32_t slot);

  /// Thread-local pool of retired Transmission records (receiver-list
  /// capacity retained). Channels are built and torn down once per run, so
  /// without this every run re-grows every receiver vector from scratch;
  /// with it, warm runs on the same thread are allocation-free here.
  static std::vector<std::unique_ptr<Transmission>>& spare_transmissions();
  /// Thread-local grid-query scratch, same rationale.
  static std::vector<std::uint32_t>& query_scratch();

  des::Scheduler* scheduler_;
  std::unique_ptr<PropagationModel> model_;
  RadioParams params_;
  // Linear-domain mirrors of the dBm params, converted once: the transmit
  // loop draws and thresholds per receiver in mW, so no per-draw pow/log.
  double tx_power_mw_;
  double rx_threshold_mw_;
  double interference_cutoff_mw_;
  double nominal_range_;
  double interference_range_;
  geom::SpatialGrid grid_;
  std::vector<std::unique_ptr<Transceiver>> transceivers_;
  des::Rng rng_;
  /// Base key of the counter-based per-link streams (des::LinkRng), taken
  /// from rng_'s fork-derived seed.
  std::uint64_t link_seed_base_ = 0;
  /// Cached model_->stochastic(): per-receiver branch on the hot path.
  bool stochastic_ = false;
  ChannelStats stats_;
  std::vector<std::uint32_t> frame_counters_;  ///< per-sender frame-id counters
  std::vector<std::unique_ptr<Transmission>> transmissions_;
  std::vector<std::uint32_t> free_transmissions_;
};

}  // namespace rrnet::phy

// CSMA/CA MAC with carrier sense, IFS, slotted binary-exponential backoff,
// broadcast frames (single attempt, no ACK) and unicast frames with
// ACK + retransmission (link-break detection for AODV).
#pragma once

#include <cstdint>
#include <optional>

#include "des/rng.hpp"
#include "des/timer.hpp"
#include "mac/frame.hpp"
#include "mac/priority_queue.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "util/pool.hpp"

namespace rrnet::mac {

struct MacParams {
  des::Time slot_time = 20e-6;
  des::Time difs = 50e-6;   ///< idle wait before backoff countdown
  des::Time sifs = 10e-6;   ///< gap before an ACK
  std::uint32_t cw_min = 16;   ///< initial contention window (slots)
  std::uint32_t cw_max = 1024;
  std::uint32_t max_retries = 4;  ///< unicast attempts before giving up
  std::size_t queue_capacity = 64;
  bool priority_queue = true;  ///< paper's net->MAC priority queue
  /// RTS/CTS virtual carrier sense for unicast frames whose total size
  /// reaches rts_threshold_bytes (hidden-terminal mitigation).
  bool rts_cts = false;
  std::uint32_t rts_threshold_bytes = 128;
};

/// Per-MAC counters. `data_tx + ack_tx` is the paper's "number of MAC
/// packets" metric for one node.
struct MacStats {
  std::uint64_t data_tx = 0;
  std::uint64_t ack_tx = 0;
  std::uint64_t rts_tx = 0;
  std::uint64_t cts_tx = 0;
  std::uint64_t cts_timeouts = 0;
  std::uint64_t nav_deferrals = 0;  ///< attempts deferred by a foreign NAV
  std::uint64_t backoffs = 0;       ///< fresh backoff draws (not resumptions)
  std::uint64_t retries = 0;
  std::uint64_t unicast_failures = 0;  ///< retries exhausted
  std::uint64_t queue_drops = 0;
  std::uint64_t tx_dropped_radio_off = 0;
  obs::Histogram backoff_slots;  ///< distribution of drawn backoff slots
  [[nodiscard]] std::uint64_t total_tx() const noexcept {
    return data_tx + ack_tx + rts_tx + cts_tx;
  }

  MacStats& operator+=(const MacStats& o) noexcept {
    data_tx += o.data_tx;
    ack_tx += o.ack_tx;
    rts_tx += o.rts_tx;
    cts_tx += o.cts_tx;
    cts_timeouts += o.cts_timeouts;
    nav_deferrals += o.nav_deferrals;
    backoffs += o.backoffs;
    retries += o.retries;
    unicast_failures += o.unicast_failures;
    queue_drops += o.queue_drops;
    tx_dropped_radio_off += o.tx_dropped_radio_off;
    backoff_slots.merge(o.backoff_slots);
    return *this;
  }
};

/// Delivery callbacks from the MAC to the network layer.
class MacListener {
 public:
  virtual ~MacListener() = default;
  /// A data frame arrived. `for_us` is false for overheard unicast traffic
  /// addressed to another node (promiscuous delivery: Routeless Routing
  /// learns hop counts "by passively listening to all packets").
  virtual void mac_receive(const Frame& frame, const phy::RxInfo& info,
                           bool for_us) = 0;
  /// A previously enqueued frame left the MAC: delivered/aired (`success`)
  /// or dropped (queue overflow counted separately; here: radio off or
  /// unicast retries exhausted).
  virtual void mac_send_done(const Frame& frame, bool success) = 0;
};

class CsmaMac final : public phy::RadioListener, public util::PoolAllocated {
 public:
  CsmaMac(phy::Channel& channel, std::uint32_t node_id, MacParams params,
          des::Rng rng, MacListener& listener);

  CsmaMac(const CsmaMac&) = delete;
  CsmaMac& operator=(const CsmaMac&) = delete;

  /// Queue a network packet for transmission. `priority`: lower is served
  /// first when the priority queue is enabled (use the election backoff).
  /// `payload_bytes` is the network-layer size; MAC header is added here.
  void send(std::uint32_t dst, net::PacketRef packet,
            std::uint32_t payload_bytes, double priority = 0.0);

  [[nodiscard]] const MacStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t node_id() const noexcept { return node_id_; }
  /// Deepest the net->MAC queue has ever been (congestion gauge).
  [[nodiscard]] std::size_t queue_high_water() const noexcept {
    return queue_.high_water();
  }
  [[nodiscard]] const MacParams& params() const noexcept { return params_; }

  // phy::RadioListener
  void on_receive(const phy::Airframe& frame, const phy::RxInfo& info) override;
  void on_tx_done(std::uint64_t frame_id) override;
  void on_medium_changed(bool busy) override;

 private:
  enum class TxState : std::uint8_t {
    Idle,        ///< nothing in service
    WaitIdle,    ///< medium busy; waiting for it to clear
    Difs,        ///< sensing idle for DIFS
    Backoff,     ///< counting down backoff slots
    Transmitting,///< frame on the air
    AwaitAck,    ///< unicast sent; ACK timer running
    AwaitCts     ///< RTS sent; CTS timer running
  };

  void serve_next();
  void begin_attempt();
  void start_difs();
  void start_backoff();
  void pause_backoff();
  void transmit_current();
  void transmit_data_now();
  /// Air the current exchange's next frame: its RTS, or the data frame.
  /// A refused frame drops the exchange.
  void air_current(bool rts);
  [[nodiscard]] Frame rts_for(const Frame& data) const;
  /// Stamp `frame` with a fresh frame id and put it on the air; the one
  /// path every frame takes. Returns whether the radio took it.
  bool air(Frame frame);
  void send_cts(const Frame& rts);
  void observe_nav(const Frame& frame, des::Time frame_end);
  [[nodiscard]] bool nav_blocked() const noexcept;
  [[nodiscard]] bool uses_rts(const Frame& frame) const noexcept;
  void handle_ack_timeout();
  void finish_current(bool success);
  void send_ack(const Frame& data_frame);
  [[nodiscard]] des::Time ack_timeout() const noexcept;

  phy::Channel* channel_;
  des::Scheduler* scheduler_;
  std::uint32_t node_id_;
  MacParams params_;
  des::Rng rng_;
  MacListener* listener_;
  TxQueue queue_;

  TxState state_ = TxState::Idle;
  std::optional<QueuedFrame> current_;
  std::uint32_t attempt_ = 0;     ///< retries used for current frame
  std::uint32_t cw_ = 0;          ///< current contention window
  std::uint32_t slots_left_ = 0;  ///< frozen backoff slots remaining
  std::uint64_t airframe_id_ = 0; ///< id of our frame on the air
  bool tx_is_ack_ = false;
  std::uint32_t next_sequence_ = 0;
  des::Timer backoff_timer_;
  des::Timer difs_timer_;
  des::Timer ack_timer_;
  des::Timer nav_timer_;
  des::Time nav_until_ = 0.0;  ///< virtual carrier sense horizon
  bool tx_is_rts_ = false;
  MacStats stats_;
};

}  // namespace rrnet::mac

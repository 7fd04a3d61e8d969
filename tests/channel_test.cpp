#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "phy/channel.hpp"
#include "phy/units.hpp"

namespace rrnet::phy {
namespace {

struct Capture final : RadioListener {
  std::vector<std::pair<Airframe, RxInfo>> received;
  std::vector<std::uint64_t> tx_done;
  int busy_edges = 0;
  void on_receive(const Airframe& frame, const RxInfo& info) override {
    received.emplace_back(frame, info);
  }
  void on_tx_done(std::uint64_t id) override { tx_done.push_back(id); }
  void on_medium_changed(bool busy) override {
    if (busy) ++busy_edges;
  }
};

class ChannelTest : public ::testing::Test {
 protected:
  /// Channel with nodes on a line, spacing given, range 250 m.
  void build(std::vector<double> xs) {
    std::vector<geom::Vec2> positions;
    for (double x : xs) positions.push_back({x, 500.0});
    FreeSpace for_power;
    params_.cs_threshold_dbm = params_.rx_threshold_dbm - 7.0;
    params_.noise_floor_dbm = params_.rx_threshold_dbm - 14.0;
    params_.interference_cutoff_dbm = params_.rx_threshold_dbm - 14.0;
    params_.tx_power_dbm =
        tx_power_for_range(for_power, 250.0, params_.rx_threshold_dbm);
    channel_ = std::make_unique<Channel>(
        scheduler_, geom::Terrain(5000.0, 1000.0),
        std::make_unique<FreeSpace>(), params_, positions, des::Rng(1));
    captures_.resize(xs.size());
    for (std::uint32_t i = 0; i < xs.size(); ++i) {
      channel_->transceiver(i).attach(captures_[i]);
    }
  }

  Airframe frame_from(std::uint32_t sender, std::uint32_t bytes = 100) {
    Airframe f;
    f.sender = sender;
    f.id = channel_->next_frame_id(sender);
    f.size_bytes = bytes;
    return f;
  }

  des::Scheduler scheduler_;
  RadioParams params_;
  std::unique_ptr<Channel> channel_;
  std::vector<Capture> captures_;
};

TEST_F(ChannelTest, DeliversWithinRange) {
  build({0.0, 200.0});
  EXPECT_TRUE(channel_->transmit(frame_from(0)));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  EXPECT_EQ(captures_[1].received[0].first.sender, 0u);
  EXPECT_EQ(channel_->stats().deliveries, 1u);
  EXPECT_EQ(channel_->stats().transmissions, 1u);
}

TEST_F(ChannelTest, NoDeliveryBeyondRange) {
  build({0.0, 300.0});
  channel_->transmit(frame_from(0));
  scheduler_.run();
  EXPECT_TRUE(captures_[1].received.empty());
  EXPECT_EQ(channel_->stats().deliveries, 0u);
}

TEST_F(ChannelTest, NominalRangeIsCalibrated) {
  build({0.0, 200.0});
  EXPECT_NEAR(channel_->nominal_range_m(), 250.0, 0.5);
  EXPECT_GT(channel_->interference_range_m(), channel_->nominal_range_m());
}

TEST_F(ChannelTest, RssiDecreasesWithDistance) {
  build({0.0, 100.0, 240.0});
  channel_->transmit(frame_from(0));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  ASSERT_EQ(captures_[2].received.size(), 1u);
  EXPECT_GT(captures_[1].received[0].second.rssi_dbm,
            captures_[2].received[0].second.rssi_dbm);
}

TEST_F(ChannelTest, SenderGetsTxDoneAndNoSelfReception) {
  build({0.0, 200.0});
  const Airframe f = frame_from(0);
  channel_->transmit(f);
  scheduler_.run();
  ASSERT_EQ(captures_[0].tx_done.size(), 1u);
  EXPECT_EQ(captures_[0].tx_done[0], f.id);
  EXPECT_TRUE(captures_[0].received.empty());
}

TEST_F(ChannelTest, SimultaneousTransmissionsCollideAtMiddle) {
  // Nodes 0 and 2 both in range of middle node 1, equal power -> SINR ~ 0 dB
  // at node 1 -> both frames lost there.
  build({0.0, 200.0, 400.0});
  channel_->transmit(frame_from(0));
  channel_->transmit(frame_from(2));
  scheduler_.run();
  EXPECT_TRUE(captures_[1].received.empty());
  EXPECT_GE(channel_->transceiver(1).stats().frames_collided, 1u);
}

TEST_F(ChannelTest, CaptureOfMuchStrongerFrame) {
  // Node 1 is 50 m from node 0 but 240 m from node 2: frame from 0 is
  // ~13.6 dB stronger and survives the overlap.
  build({0.0, 50.0, 290.0});
  channel_->transmit(frame_from(0));
  channel_->transmit(frame_from(2));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  EXPECT_EQ(captures_[1].received[0].first.sender, 0u);
}

TEST_F(ChannelTest, LateInterferenceCorruptsLockedFrame) {
  build({0.0, 200.0, 400.0});
  channel_->transmit(frame_from(0, 1000));  // long frame
  bool second_sent = false;
  scheduler_.schedule_at(0.001, [&]() {
    second_sent = channel_->transmit(frame_from(2, 1000));
  });
  scheduler_.run();
  EXPECT_TRUE(second_sent);
  EXPECT_TRUE(captures_[1].received.empty());  // corrupted mid-reception
}

TEST_F(ChannelTest, HalfDuplexSenderCannotReceive) {
  build({0.0, 200.0});
  channel_->transmit(frame_from(0, 1000));
  scheduler_.schedule_at(0.0001, [&]() {
    channel_->transmit(frame_from(1, 50));  // while 0 still transmitting
  });
  scheduler_.run();
  EXPECT_TRUE(captures_[0].received.empty());
}

TEST_F(ChannelTest, RejectsDoubleTransmit) {
  build({0.0, 200.0});
  EXPECT_TRUE(channel_->transmit(frame_from(0, 1000)));
  EXPECT_FALSE(channel_->transmit(frame_from(0, 10)));
  scheduler_.run();
}

// Regression: a transmit attempt while already transmitting used to return
// false silently — no counter, no trace — making busy-sender losses
// indistinguishable from frames that were never offered.
TEST_F(ChannelTest, BusySenderDropIsCounted) {
  build({0.0, 200.0});
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_busy, 0u);
  EXPECT_TRUE(channel_->transmit(frame_from(0, 1000)));
  EXPECT_FALSE(channel_->transmit(frame_from(0, 10)));
  EXPECT_FALSE(channel_->transmit(frame_from(0, 10)));
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_busy, 2u);
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_off, 0u);
  scheduler_.run();
  // Once the airtime ends the radio is no longer busy.
  EXPECT_TRUE(channel_->transmit(frame_from(0, 10)));
  scheduler_.run();
  EXPECT_EQ(channel_->transceiver(0).stats().tx_dropped_busy, 2u);
}

// Regression: turning a radio off mid-decode cleared the signal set and the
// lock without crediting the aborted reception to any drop counter, leaving
// arrivals unaccounted (decoded + drops < signals_arrived).
TEST_F(ChannelTest, TurnOffMidDecodeCountsAbortedReception) {
  build({0.0, 200.0});
  channel_->transmit(frame_from(0, 1000));  // long frame
  bool turned_off = false;
  scheduler_.schedule_at(0.001, [&]() {  // mid-airtime: node 1 is locked
    EXPECT_EQ(channel_->transceiver(1).state(), RadioState::Rx);
    channel_->transceiver(1).turn_off();
    turned_off = true;
  });
  scheduler_.run();
  EXPECT_TRUE(turned_off);
  EXPECT_TRUE(captures_[1].received.empty());
  const TransceiverStats& stats = channel_->transceiver(1).stats();
  EXPECT_EQ(stats.frames_aborted_off, 1u);
  // Conservation: the single arrival resolves into exactly one outcome.
  EXPECT_EQ(stats.signals_arrived, 1u);
  EXPECT_EQ(stats.frames_decoded + stats.frames_collided +
                stats.frames_missed_busy + stats.frames_below_threshold +
                stats.frames_while_off + stats.frames_aborted_off,
            stats.signals_arrived);
}

// Radio-off without a lock in progress must NOT bump the aborted counter
// (the other cleared signals already got their outcome at arrival).
TEST_F(ChannelTest, TurnOffWithoutLockAbortsNothing) {
  build({0.0, 200.0});
  channel_->transceiver(1).turn_off();
  scheduler_.run();
  EXPECT_EQ(channel_->transceiver(1).stats().frames_aborted_off, 0u);
}

// Regression for carrier-sense drift: the cumulative in-air power at a
// receiver is maintained incrementally across arrivals/expiries; after
// heavy overlapping-signal churn the medium must read exactly idle again
// (total power exactly 0.0), not epsilon-busy from FP residue.
TEST_F(ChannelTest, MediumReadsExactlyIdleAfterSignalChurn) {
  build({0.0, 150.0, 200.0, 310.0, 405.0});
  des::Rng jitter(99);
  for (int round = 0; round < 200; ++round) {
    // Overlapping bursts from every node at staggered times: receiver
    // signal sets grow and drain repeatedly, in varying interleavings.
    for (std::uint32_t s = 0; s < 5; ++s) {
      scheduler_.schedule_at(scheduler_.now() + jitter.uniform01() * 1e-3,
                             [this, s]() {
                               channel_->transmit(frame_from(s, 400));
                             });
    }
    scheduler_.run();
    for (std::uint32_t n = 0; n < 5; ++n) {
      ASSERT_EQ(channel_->transceiver(n).total_rx_power_mw(), 0.0)
          << "node " << n << " round " << round;
      ASSERT_FALSE(channel_->transceiver(n).medium_busy());
    }
  }
}

TEST_F(ChannelTest, OffRadioNeitherSendsNorReceives) {
  build({0.0, 200.0});
  channel_->transceiver(1).turn_off();
  channel_->transmit(frame_from(0));
  scheduler_.run();
  EXPECT_TRUE(captures_[1].received.empty());
  EXPECT_EQ(channel_->transceiver(1).stats().frames_while_off, 1u);
  EXPECT_FALSE(channel_->transmit(frame_from(1)));
  EXPECT_EQ(channel_->transceiver(1).stats().tx_dropped_off, 1u);
}

TEST_F(ChannelTest, TurnOnRestoresOperation) {
  build({0.0, 200.0});
  channel_->transceiver(1).turn_off();
  channel_->transceiver(1).turn_on();
  channel_->transmit(frame_from(0));
  scheduler_.run();
  EXPECT_EQ(captures_[1].received.size(), 1u);
}

TEST_F(ChannelTest, CarrierSenseSeesNeighborTransmission) {
  build({0.0, 200.0});
  EXPECT_FALSE(channel_->transceiver(1).medium_busy());
  channel_->transmit(frame_from(0, 1000));
  scheduler_.run_until(0.001);
  EXPECT_TRUE(channel_->transceiver(1).medium_busy());
  scheduler_.run();
  EXPECT_FALSE(channel_->transceiver(1).medium_busy());
  EXPECT_GE(captures_[1].busy_edges, 1);
}

TEST_F(ChannelTest, BackToBackFramesBothDeliver) {
  build({0.0, 200.0});
  channel_->transmit(frame_from(0, 100));
  scheduler_.schedule_at(0.01, [&]() { channel_->transmit(frame_from(0, 100)); });
  scheduler_.run();
  EXPECT_EQ(captures_[1].received.size(), 2u);
}

TEST_F(ChannelTest, PropagationDelayOrdersDistantReceivers) {
  build({0.0, 100.0, 240.0});
  channel_->transmit(frame_from(0));
  scheduler_.run();
  ASSERT_EQ(captures_[1].received.size(), 1u);
  ASSERT_EQ(captures_[2].received.size(), 1u);
  EXPECT_LT(captures_[1].received[0].second.rx_end,
            captures_[2].received[0].second.rx_end);
}

TEST_F(ChannelTest, FrameIdsAreUnique) {
  build({0.0, 200.0});
  // Per-sender counters: ids differ across draws of one sender and across
  // senders (the sender id lives in the high 32 bits).
  const auto a = channel_->next_frame_id(0);
  const auto b = channel_->next_frame_id(0);
  const auto c = channel_->next_frame_id(1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(c >> 32, 1u);
}

}  // namespace
}  // namespace rrnet::phy

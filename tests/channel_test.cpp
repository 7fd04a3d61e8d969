#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "geom/placement.hpp"
#include "phy/channel.hpp"
#include "phy/receiver_table.hpp"
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

// turn_off drops every signal on the air at once. The end of a dropped
// signal must leave alone the signals that arrived after the off/on cycle:
// the in-air total keeps the newer signal's power until that one ends.
TEST_F(ChannelTest, StaleEndAfterOffOnCycleLeavesNewSignalsAlone) {
  build({0.0, 200.0, 300.0});
  Transceiver& rx = channel_->transceiver(1);
  channel_->transmit(frame_from(0, 1000));  // A: on the air until ~8.2 ms
  scheduler_.schedule_at(0.001, [&]() {  // mid-airtime: node 1 is on A
    rx.turn_off();
    rx.turn_on();
    // B reaches node 1 while A is still on the air, and outlasts it.
    EXPECT_TRUE(channel_->transmit(frame_from(2, 1000)));
  });
  double after_b_arrived = -1.0;
  double after_a_ended = -1.0;
  scheduler_.schedule_at(0.002, [&]() {
    after_b_arrived = rx.total_rx_power_mw();
  });
  scheduler_.schedule_at(0.0087, [&]() {  // A has ended, B has not
    after_a_ended = rx.total_rx_power_mw();
  });
  scheduler_.run();
  EXPECT_GT(after_b_arrived, 0.0);
  EXPECT_EQ(after_a_ended, after_b_arrived);
  EXPECT_EQ(rx.total_rx_power_mw(), 0.0);
  ASSERT_EQ(captures_[1].received.size(), 1u);
  EXPECT_EQ(captures_[1].received[0].first.sender, 2u);
  const TransceiverStats& stats = rx.stats();
  EXPECT_EQ(stats.signals_arrived, 2u);
  EXPECT_EQ(stats.frames_decoded + stats.frames_collided +
                stats.frames_missed_busy + stats.frames_below_threshold +
                stats.frames_while_off + stats.frames_aborted_off,
            stats.signals_arrived);
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

// ------------------------------------------------------------ ReceiverTable
//
// Differential fuzz: every fill, whether it reuses a stored list, stores a
// new one or builds into scratch (over budget, or after a move), must equal
// an O(n) pass over all nodes, bit for bit. Nodes are placed uniformly, or
// on a lattice, where distances tie and some fall exactly on the range.

struct LinkSetup {
  double tx_power_mw;
  double cutoff_mw;
  double range_m;
};

/// Calibrated like a scenario: the nominal range is 250 m and the cutoff
/// sits 10 dB under the rx threshold.
LinkSetup calibrate(const PropagationModel& model,
                    const geom::Terrain& terrain) {
  const RadioParams params;
  const double tx_dbm =
      tx_power_for_range(model, 250.0, params.rx_threshold_dbm);
  const double cutoff_dbm = params.rx_threshold_dbm - 10.0;
  return {dbm_to_mw(tx_dbm), dbm_to_mw(cutoff_dbm),
          range_for_threshold(model, tx_dbm, cutoff_dbm, terrain.diameter())};
}

/// Every other node within range whose power clears the cutoff, sorted by
/// (arrival, id).
std::vector<PendingRx> brute_force(const std::vector<geom::Vec2>& positions,
                                   std::uint32_t sender, des::Time now,
                                   std::uint64_t draw_index,
                                   const PropagationModel& model,
                                   const LinkSetup& link,
                                   std::uint64_t link_seed_base) {
  std::vector<PendingRx> out;
  des::Rng unused(0);
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    if (id == sender) continue;
    const double d = geom::distance(positions[sender], positions[id]);
    if (d > link.range_m) continue;
    des::LinkRng draws(link_seed_base, sender, id, draw_index);
    const double power = model.rx_power_mw(
        link.tx_power_mw, d, model.stochastic() ? draws.rng() : unused);
    if (power < link.cutoff_mw) continue;
    out.push_back({now + d / des::kSpeedOfLight, power, id});
  }
  std::sort(out.begin(), out.end(), [](const PendingRx& a, const PendingRx& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.rx_id < b.rx_id;
  });
  return out;
}

/// True if `got` equals `want` in ids, arrival bits and power bits.
::testing::AssertionResult same_receivers(const std::vector<PendingRx>& got,
                                          const std::vector<PendingRx>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " receivers, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].rx_id != want[i].rx_id ||
        std::bit_cast<std::uint64_t>(got[i].arrival) !=
            std::bit_cast<std::uint64_t>(want[i].arrival) ||
        std::bit_cast<std::uint64_t>(got[i].power_mw) !=
            std::bit_cast<std::uint64_t>(want[i].power_mw)) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": rx " << got[i].rx_id << " at "
             << got[i].arrival << " with " << got[i].power_mw << " mW, want rx "
             << want[i].rx_id << " at " << want[i].arrival << " with "
             << want[i].power_mw << " mW";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A `now` from a mix that includes 2^20 s, where offsets a few cm apart
/// round to one arrival, and 2^33 s, where ulp(now) exceeds every offset
/// and a whole list collapses to one arrival.
des::Time draw_now(des::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return 0.0;
    case 1: return rng.uniform(0.0, 100.0);
    case 2: return std::ldexp(1.0, 20) + rng.uniform(0.0, 1.0);
    default: return std::ldexp(1.0, 33);
  }
}

/// 20 x 15 nodes 50 m apart (300, as many as the uniform placement).
/// Many receivers share one exact distance, and with kLatticeRange some sit
/// exactly at the range: 250 = 5 x 50, and the 3-4-5 offsets (150, 200).
constexpr double kLatticeRange = 250.0;
std::vector<geom::Vec2> lattice() {
  std::vector<geom::Vec2> positions;
  for (int row = 0; row < 15; ++row) {
    for (int col = 0; col < 20; ++col) {
      positions.push_back({25.0 + 50.0 * col, 25.0 + 50.0 * row});
    }
  }
  return positions;
}

std::unique_ptr<PropagationModel> make_model(int kind) {
  switch (kind) {
    case 0: return std::make_unique<FreeSpace>();
    case 1: return std::make_unique<TwoRayGround>();
    default:
      return std::make_unique<RayleighFading>(std::make_unique<FreeSpace>());
  }
}

TEST(ReceiverTable, DifferentialFuzzAgainstBruteForce) {
  constexpr std::uint32_t kNodes = 300;
  constexpr std::uint32_t kSenders = 40;  // so most senders fill repeatedly
  const geom::Terrain terrain(1000.0, 1000.0);
  for (const bool on_lattice : {false, true}) {
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
      for (int kind = 0; kind < 3; ++kind) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " model="
                                          << kind << " lattice=" << on_lattice);
        des::Rng rng(seed);
        std::vector<geom::Vec2> positions =
            on_lattice ? lattice() : geom::place_uniform(terrain, kNodes, rng);
        ASSERT_EQ(positions.size(), kNodes);
        const auto model = make_model(kind);
        LinkSetup link = calibrate(*model, terrain);
        if (on_lattice) {
          // Shorter than the cutoff range, so mean power decides nothing.
          ASSERT_GT(link.range_m, kLatticeRange);
          link.range_m = kLatticeRange;
        } else if (kind == 1) {
          const auto& two_ray = static_cast<const TwoRayGround&>(*model);
          ASSERT_LT(two_ray.crossover_distance_m(), link.range_m);
        }
        const des::Rng link_rng(seed * 7 + 1);
        ReceiverTable table(terrain, positions, link.range_m, *model,
                            link.tx_power_mw, link.cutoff_mw, link_rng);
        std::vector<std::uint64_t> draws(kNodes, 0);
        std::vector<PendingRx> got;
        // Phase 0 stores and reuses lists; phase 1 moves nodes between
        // fills, so they enter and leave ranges and nothing is stored any
        // more.
        for (int phase = 0; phase < 2; ++phase) {
          for (int op = 0; op < 400; ++op) {
            if (phase == 1 && rng.uniform(0.0, 1.0) < 0.4) {
              const auto id =
                  static_cast<std::uint32_t>(rng.uniform_int(0, kNodes - 1));
              positions[id] = terrain.clamp(
                  {positions[id].x + rng.uniform(-150.0, 150.0),
                   positions[id].y + rng.uniform(-150.0, 150.0)});
              table.set_position(id, positions[id]);
              continue;
            }
            const auto sender =
                static_cast<std::uint32_t>(rng.uniform_int(0, kSenders - 1));
            const des::Time now = draw_now(rng);
            const std::uint64_t draw = ++draws[sender];
            table.fill(sender, now, draw, got);
            const auto want = brute_force(positions, sender, now, draw,
                                          *model, link, link_rng.seed());
            ASSERT_TRUE(same_receivers(got, want))
                << "phase=" << phase << " op=" << op << " sender=" << sender;
          }
          if (phase == 0) {
            EXPECT_EQ(table.stored_senders(), kSenders);
          } else {
            EXPECT_EQ(table.stored_senders(), 0u);
          }
        }
      }
    }
  }
}

TEST(ReceiverTable, DenseListsOverflowTheBudgetIntoScratch) {
  // Every node hears every other: 2 000 nodes make ~4 M entries, far over
  // the byte budget, so most senders are built into scratch on each fill.
  constexpr std::uint32_t kNodes = 2000;
  const geom::Terrain terrain(100.0, 100.0);
  des::Rng rng(31);
  const auto positions = geom::place_uniform(terrain, kNodes, rng);
  const FreeSpace model;
  const LinkSetup link = calibrate(model, terrain);
  ASSERT_GE(link.range_m, terrain.diameter());
  ReceiverTable table(terrain, positions, link.range_m, model,
                      link.tx_power_mw, link.cutoff_mw, des::Rng(32));
  std::vector<PendingRx> got;
  std::vector<std::uint8_t> filled(kNodes, 0);
  for (int op = 0; op < 600; ++op) {
    const auto sender = static_cast<std::uint32_t>(rng.uniform_int(0, 299));
    const des::Time now = draw_now(rng);
    table.fill(sender, now, 1, got);
    filled[sender] = 1;
    ASSERT_TRUE(same_receivers(
        got, brute_force(positions, sender, now, 1, model, link, 0)))
        << "op=" << op << " sender=" << sender;
  }
  const auto distinct = static_cast<std::size_t>(
      std::count(filled.begin(), filled.end(), std::uint8_t{1}));
  EXPECT_GT(table.stored_senders(), 0u);
  EXPECT_LT(table.stored_senders(), distinct);
  EXPECT_LE(table.stored_senders() * (kNodes - 1) * 16,
            ReceiverTable::kByteBudget);
}

}  // namespace
}  // namespace rrnet::phy

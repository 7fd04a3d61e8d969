#include <utility>

#include <gtest/gtest.h>

#include "util/contracts.hpp"

#include "app/cbr.hpp"
#include "proto/ssaf.hpp"
#include "test_helpers.hpp"

namespace rrnet::app {
namespace {

using rrnet::testing::TestNet;

TEST(FlowStats, DeliveryRatioAndDelay) {
  FlowStats stats;
  stats.record_sent(1);
  stats.record_sent(2);
  stats.record_sent(3);
  net::PacketInit init;
  init.uid = 1;
  init.created_at = 0.0;
  init.actual_hops = 4;
  stats.record_delivered(net::make_packet(std::move(init)), 0.5);
  EXPECT_EQ(stats.sent(), 3u);
  EXPECT_EQ(stats.delivered(), 1u);
  EXPECT_NEAR(stats.delivery_ratio(), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.delay().mean(), 0.5);
  EXPECT_DOUBLE_EQ(stats.hops().mean(), 4.0);
}

TEST(FlowStats, DuplicateDeliveryCountedOnce) {
  FlowStats stats;
  stats.record_sent(7);
  net::PacketInit init;
  init.uid = 7;
  const net::PacketRef p = net::make_packet(std::move(init));
  stats.record_delivered(p, 0.1);
  stats.record_delivered(p, 0.2);
  EXPECT_EQ(stats.delivered(), 1u);
  EXPECT_EQ(stats.delay().count(), 1u);
}

TEST(FlowStats, UnknownUidIgnored) {
  FlowStats stats;
  net::PacketInit init;
  init.uid = 99;
  stats.record_delivered(net::make_packet(std::move(init)), 0.1);
  EXPECT_EQ(stats.delivered(), 0u);
}

TEST(FlowStats, ZeroSentGivesZeroRatio) {
  FlowStats stats;
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.0);
}

TEST(FlowStats, OutstandingBoundedUnderSustainedLoss) {
  // Regression: outstanding_ used to grow by one entry per lost packet
  // forever. With a uid window it stays bounded however long the run.
  FlowStats stats(/*uid_window=*/64);
  EXPECT_EQ(stats.uid_window(), 64u);
  for (std::uint64_t uid = 1; uid <= 1000; ++uid) {
    stats.record_sent(uid);
  }
  EXPECT_EQ(stats.sent(), 1000u);
  EXPECT_LE(stats.outstanding_size(), 64u);
  EXPECT_EQ(stats.outstanding_evictions(), 1000u - 64u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.0);  // counters unaffected
}

TEST(FlowStats, EvictedUidDeliveryIgnoredRecentUidCounted) {
  FlowStats stats(/*uid_window=*/64);
  for (std::uint64_t uid = 1; uid <= 1000; ++uid) stats.record_sent(uid);
  // uid 1 aged out of the window: its ultra-late delivery is ignored, same
  // as the old code's unknown-uid judgement call.
  net::PacketInit evicted;
  evicted.uid = 1;
  stats.record_delivered(net::make_packet(std::move(evicted)), 1.0);
  EXPECT_EQ(stats.delivered(), 0u);
  // uid 1000 is still tracked and counts normally.
  net::PacketInit recent;
  recent.uid = 1000;
  recent.created_at = 0.0;
  stats.record_delivered(net::make_packet(std::move(recent)), 1.0);
  EXPECT_EQ(stats.delivered(), 1u);
  EXPECT_EQ(stats.delay().count(), 1u);
}

TEST(FlowStats, SeenUidWindowBoundedToo) {
  FlowStats stats(/*uid_window=*/32);
  for (std::uint64_t uid = 1; uid <= 200; ++uid) {
    stats.record_sent(uid);
    net::PacketInit init;
    init.uid = uid;
    stats.record_delivered(net::make_packet(std::move(init)), 0.1);
  }
  EXPECT_EQ(stats.delivered(), 200u);
  EXPECT_LE(stats.seen_size(), 32u);
  EXPECT_LE(stats.outstanding_size(), 32u);
}

TEST(Cbr, RejectsBadConfig) {
  auto tn = rrnet::testing::make_line_net(2);
  tn.node(0).set_protocol(proto::make_counter1_flooding(tn.node(0)));
  FlowStats stats;
  CbrConfig bad;
  bad.interval = 0.0;
  EXPECT_THROW(CbrSource(tn.node(0), 1, bad, stats),
               rrnet::ContractViolation);
  EXPECT_THROW(CbrSource(tn.node(0), 0, CbrConfig{}, stats),
               rrnet::ContractViolation);
}

TEST(Cbr, GeneratesExpectedPacketCount) {
  auto tn = rrnet::testing::make_line_net(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    tn.node(i).set_protocol(proto::make_counter1_flooding(tn.node(i)));
  }
  tn.network->start_protocols();
  FlowStats stats;
  CbrConfig config;
  config.interval = 1.0;
  config.start_time = 1.0;
  config.stop_time = 11.0;
  CbrSource source(tn.node(0), 1, config, stats);
  source.start();
  tn.scheduler.run_until(30.0);
  // First packet in (1, 2]; then one per second until t >= 11: 9 or 10.
  EXPECT_GE(source.packets_sent(), 9u);
  EXPECT_LE(source.packets_sent(), 10u);
  EXPECT_EQ(stats.sent(), source.packets_sent());
}

TEST(Cbr, EndToEndWithSinkOverRealProtocol) {
  auto tn = rrnet::testing::make_line_net(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    tn.node(i).set_protocol(proto::make_counter1_flooding(tn.node(i)));
  }
  tn.network->start_protocols();
  FlowStats stats;
  attach_sink(tn.node(2), stats);
  CbrConfig config;
  config.interval = 0.5;
  config.start_time = 0.5;
  config.stop_time = 5.5;
  CbrSource source(tn.node(0), 2, config, stats);
  source.start();
  tn.scheduler.run_until(20.0);
  EXPECT_GE(stats.sent(), 9u);
  EXPECT_EQ(stats.delivered(), stats.sent());  // quiet 2-hop line: no loss
  EXPECT_NEAR(stats.hops().mean(), 2.0, 1e-9);
  EXPECT_GT(stats.delay().mean(), 0.0);
  EXPECT_LT(stats.delay().mean(), 0.1);
}

TEST(Cbr, StopTimeHaltsGeneration) {
  auto tn = rrnet::testing::make_line_net(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    tn.node(i).set_protocol(proto::make_counter1_flooding(tn.node(i)));
  }
  tn.network->start_protocols();
  FlowStats stats;
  CbrConfig config;
  config.interval = 1.0;
  config.start_time = 0.0;
  config.stop_time = 3.0;
  CbrSource source(tn.node(0), 1, config, stats);
  source.start();
  tn.scheduler.run_until(100.0);
  EXPECT_LE(source.packets_sent(), 3u);
}

}  // namespace
}  // namespace rrnet::app

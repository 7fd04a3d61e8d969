#include <gtest/gtest.h>

#include "proto/dsr.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {
namespace {

using rrnet::testing::TestNet;

DsrProtocol& dsr_of(net::Node& node) {
  return static_cast<DsrProtocol&>(node.protocol());
}

void attach_dsr(TestNet& tn, DsrConfig config = {}) {
  for (std::uint32_t i = 0; i < tn.network->size(); ++i) {
    tn.node(i).set_protocol(std::make_unique<DsrProtocol>(tn.node(i), config));
  }
  tn.network->start_protocols();
}

TEST(Dsr, DiscoversSourceRouteAndDelivers) {
  auto tn = rrnet::testing::make_line_net(5);
  attach_dsr(tn);
  int deliveries = 0;
  net::PacketRef delivered;
  tn.node(4).set_delivery_handler([&](const net::PacketRef& p) {
    ++deliveries;
    delivered = p;
  });
  tn.node(0).protocol().send_data(4, 128);
  tn.scheduler.run_until(20.0);
  ASSERT_EQ(deliveries, 1);
  EXPECT_EQ(delivered.actual_hops(), 4u);
  ASSERT_TRUE(dsr_of(tn.node(0)).has_cached_route(4));
  const SourceRoute& route = dsr_of(tn.node(0)).cached_route(4);
  EXPECT_EQ(route, (SourceRoute{0, 1, 2, 3, 4}));
}

TEST(Dsr, IntermediateNodesCacheSubRoutes) {
  auto tn = rrnet::testing::make_line_net(5);
  attach_dsr(tn);
  tn.node(0).protocol().send_data(4, 64);
  tn.scheduler.run_until(20.0);
  // Node 2 forwarded the reply/data; it knows routes both ways.
  ASSERT_TRUE(dsr_of(tn.node(2)).has_cached_route(4));
  ASSERT_TRUE(dsr_of(tn.node(2)).has_cached_route(0));
  EXPECT_EQ(dsr_of(tn.node(2)).cached_route(4), (SourceRoute{2, 3, 4}));
  EXPECT_EQ(dsr_of(tn.node(2)).cached_route(0), (SourceRoute{2, 1, 0}));
}

TEST(Dsr, SecondPacketUsesCache) {
  auto tn = rrnet::testing::make_line_net(4);
  attach_dsr(tn);
  int deliveries = 0;
  tn.node(3).set_delivery_handler([&](const net::PacketRef&) { ++deliveries; });
  tn.node(0).protocol().send_data(3, 64);
  tn.scheduler.run_until(20.0);
  const std::uint64_t rreqs = dsr_of(tn.node(0)).dsr_stats().rreq_originated;
  tn.node(0).protocol().send_data(3, 64);
  tn.scheduler.run_until(40.0);
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(dsr_of(tn.node(0)).dsr_stats().rreq_originated, rreqs);
  EXPECT_GE(dsr_of(tn.node(0)).dsr_stats().cache_hits, 1u);
}

TEST(Dsr, LinkBreakPurgesCachesAndRecovers) {
  std::vector<geom::Vec2> positions{
      {0, 500}, {200, 440}, {200, 560}, {400, 500}};
  DsrConfig config;
  config.discovery_timeout = 1.0;
  TestNet tn(positions, 250.0, geom::Terrain(800, 1000));
  attach_dsr(tn, config);
  int deliveries = 0;
  tn.node(3).set_delivery_handler([&](const net::PacketRef&) { ++deliveries; });
  tn.node(0).protocol().send_data(3, 64);
  tn.scheduler.run_until(10.0);
  ASSERT_EQ(deliveries, 1);
  // Kill the relay the cached route uses; the next packets re-discover
  // through the other relay.
  const SourceRoute route = dsr_of(tn.node(0)).cached_route(3);
  ASSERT_EQ(route.size(), 3u);
  tn.network->channel().transceiver(route[1]).turn_off();
  for (int i = 0; i < 4; ++i) {
    tn.scheduler.schedule_at(10.5 + i, [&tn]() {
      tn.node(0).protocol().send_data(3, 64);
    });
  }
  tn.scheduler.run_until(60.0);
  EXPECT_GE(deliveries, 4);
  EXPECT_GE(dsr_of(tn.node(0)).dsr_stats().link_breaks, 1u);
  EXPECT_GE(dsr_of(tn.node(0)).dsr_stats().rerr_sent, 1u);
}

TEST(Dsr, UnreachableTargetFailsCleanly) {
  std::vector<geom::Vec2> positions{{0, 500}, {200, 500}, {3000, 500}};
  DsrConfig config;
  config.discovery_timeout = 0.5;
  config.max_discovery_retries = 2;
  TestNet tn(positions, 250.0, geom::Terrain(4000, 1000));
  attach_dsr(tn, config);
  tn.node(0).protocol().send_data(2, 64);
  tn.scheduler.run_until(10.0);
  EXPECT_EQ(dsr_of(tn.node(0)).dsr_stats().discovery_failures, 1u);
  EXPECT_EQ(dsr_of(tn.node(0)).dsr_stats().pending_dropped, 1u);
}

TEST(Dsr, RouteRequestLoopsAreDropped) {
  // Dense cluster: RREQ copies echo back along loops and must be ignored.
  std::vector<geom::Vec2> positions;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      positions.push_back({100.0 + 150.0 * c, 100.0 + 150.0 * r});
    }
  }
  TestNet tn(positions, 250.0, geom::Terrain(600, 600));
  attach_dsr(tn);
  int deliveries = 0;
  tn.node(8).set_delivery_handler([&](const net::PacketRef&) { ++deliveries; });
  tn.node(0).protocol().send_data(8, 64);
  tn.scheduler.run_until(20.0);
  EXPECT_EQ(deliveries, 1);
  // The cached route must be loop-free.
  const SourceRoute& route = dsr_of(tn.node(0)).cached_route(8);
  SourceRoute sorted = route;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Dsr, CacheCapacityEvicts) {
  auto tn = rrnet::testing::make_line_net(6);
  DsrConfig config;
  config.cache_capacity = 2;
  attach_dsr(tn, config);
  // Flows to three different targets from node 0.
  for (std::uint32_t target : {3u, 4u, 5u}) {
    tn.node(0).protocol().send_data(target, 32);
    tn.scheduler.run_until(tn.scheduler.now() + 10.0);
  }
  EXPECT_GE(dsr_of(tn.node(0)).dsr_stats().cache_evictions, 1u);
}

TEST(Dsr, ReleasedPacketsKeepTheirRouteThroughALinkBreak) {
  // A one-frame MAC queue refuses the third released packet on the spot:
  // that send reports a link break, which purges the cached route while
  // the rest of the held packets are still being built. Each of them must
  // still carry the route the reply brought.
  mac::MacParams mac;
  mac.queue_capacity = 1;
  auto tn = rrnet::testing::make_line_net(3, /*seed=*/7, mac);
  attach_dsr(tn);
  int deliveries = 0;
  tn.node(2).set_delivery_handler([&](const net::PacketRef&) { ++deliveries; });
  for (int i = 0; i < 4; ++i) tn.node(0).protocol().send_data(2, 64);
  tn.scheduler.run_until(30.0);
  const DsrStats& stats = dsr_of(tn.node(0)).dsr_stats();
  EXPECT_GE(stats.link_breaks, 1u);
  EXPECT_EQ(stats.drops_bad_route, 0u);
  EXPECT_EQ(deliveries, 4);
}

TEST(DsrScenario, WorksThroughTheScenarioHarness) {
  sim::ScenarioConfig config;
  config.seed = 8;
  config.nodes = 50;
  config.width_m = config.height_m = 800.0;
  config.protocol = sim::ProtocolKind::Dsr;
  config.pairs = 3;
  config.cbr_interval = 1.0;
  config.traffic_stop = 11.0;
  config.sim_end = 18.0;
  const sim::ScenarioResult r = sim::run_scenario(config);
  EXPECT_GT(r.sent, 0u);
  EXPECT_GT(r.delivery_ratio, 0.9);
  EXPECT_GE(r.mean_hops, 1.0);
}

}  // namespace
}  // namespace rrnet::proto

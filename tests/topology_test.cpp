#include <gtest/gtest.h>

#include "sim/runner.hpp"
#include "sim/topology.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"

namespace rrnet::sim {
namespace {

using rrnet::testing::TestNet;
using rrnet::testing::line_positions;

TEST(Topology, LineGraphHopDistances) {
  auto tn = rrnet::testing::make_line_net(6);
  const Topology topology(tn.network->channel());
  EXPECT_EQ(topology.node_count(), 6u);
  EXPECT_EQ(topology.hop_distance(0, 0), 0);
  EXPECT_EQ(topology.hop_distance(0, 1), 1);
  EXPECT_EQ(topology.hop_distance(0, 5), 5);
  EXPECT_EQ(topology.hop_distance(5, 0), 5);
  EXPECT_TRUE(topology.connected());
  EXPECT_EQ(topology.largest_component(), 6u);
  // Interior nodes have two neighbors, ends have one.
  EXPECT_EQ(topology.neighbors(0).size(), 1u);
  EXPECT_EQ(topology.neighbors(3).size(), 2u);
}

TEST(Topology, DetectsPartition) {
  std::vector<geom::Vec2> positions{
      {0, 500}, {200, 500}, {3000, 500}, {3200, 500}};
  TestNet tn(positions, 250.0, geom::Terrain(4000, 1000));
  const Topology topology(tn.network->channel());
  EXPECT_FALSE(topology.connected());
  EXPECT_EQ(topology.largest_component(), 2u);
  EXPECT_EQ(topology.hop_distance(0, 2), -1);
  EXPECT_FALSE(topology.reachable(1, 3));
  EXPECT_TRUE(topology.reachable(0, 1));
}

TEST(Topology, BoundsChecked) {
  auto tn = rrnet::testing::make_line_net(3);
  const Topology topology(tn.network->channel());
  EXPECT_THROW(static_cast<void>(topology.neighbors(9)),
               rrnet::ContractViolation);
  EXPECT_THROW(static_cast<void>(topology.hop_distance(0, 9)),
               rrnet::ContractViolation);
}

TEST(DrawConnectedPairs, AllPairsReachableAndFarEnough) {
  auto tn = rrnet::testing::make_line_net(8);
  const Topology topology(tn.network->channel());
  des::Rng rng(5);
  const auto pairs = draw_connected_pairs(topology, 20, rng, /*min_hops=*/3);
  ASSERT_EQ(pairs.size(), 20u);
  for (const auto& [src, dst] : pairs) {
    EXPECT_NE(src, dst);
    EXPECT_GE(topology.hop_distance(src, dst), 3);
  }
}

TEST(DrawConnectedPairs, FallsBackWhenImpossible) {
  // 2-node network: min_hops 5 is unsatisfiable; must still return pairs.
  std::vector<geom::Vec2> positions{{0, 500}, {200, 500}};
  TestNet tn(positions, 250.0, geom::Terrain(1000, 1000));
  const Topology topology(tn.network->channel());
  des::Rng rng(6);
  const auto pairs = draw_connected_pairs(topology, 3, rng, 5, 16);
  ASSERT_EQ(pairs.size(), 3u);
  for (const auto& [src, dst] : pairs) EXPECT_NE(src, dst);
}

TEST(ConnectedPairsScenario, DeliveredHopsMatchBfsOnQuietNetwork) {
  ScenarioConfig config;
  config.seed = 31;
  config.nodes = 50;
  config.width_m = config.height_m = 900.0;
  config.protocol = ProtocolKind::Routeless;
  config.pairs = 2;
  config.require_connected_pairs = true;
  config.min_pair_hops = 3;
  config.cbr_interval = 2.0;
  config.traffic_stop = 9.0;
  config.sim_end = 15.0;
  SimInstance sim(config);
  const Topology topology(sim.network().channel());
  for (const auto& [src, dst] : sim.pairs()) {
    EXPECT_GE(topology.hop_distance(src, dst), 3);
  }
  sim.run();
  const ScenarioResult r = sim.result();
  EXPECT_GT(r.delivered, 0u);
  // RR finds near-shortest paths; delivered hops can't beat the BFS bound.
  double max_bfs = 0;
  for (const auto& [src, dst] : sim.pairs()) {
    max_bfs = std::max(max_bfs,
                       static_cast<double>(topology.hop_distance(src, dst)));
  }
  EXPECT_GE(r.mean_hops, 3.0);
  EXPECT_LE(r.mean_hops, max_bfs + 3.0);
}

TEST(ConnectedPairsScenario, ImprovesDeliveryOnSparseNetworks) {
  // A sparse deployment where random pairs often land in different
  // components: requiring connectivity removes that artifact.
  ScenarioConfig config;
  config.seed = 33;
  config.nodes = 25;
  config.width_m = config.height_m = 1600.0;
  config.protocol = ProtocolKind::Counter1Flooding;
  config.pairs = 10;
  config.cbr_interval = 2.0;
  config.traffic_stop = 9.0;
  config.sim_end = 15.0;
  const ScenarioResult random_pairs = run_scenario(config);
  config.require_connected_pairs = true;
  const ScenarioResult connected_pairs = run_scenario(config);
  EXPECT_GE(connected_pairs.delivery_ratio, random_pairs.delivery_ratio);
}

}  // namespace
}  // namespace rrnet::sim

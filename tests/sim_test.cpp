#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "geom/placement.hpp"
#include "sim/replication.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "util/contracts.hpp"

namespace rrnet::sim {
namespace {

ScenarioConfig small_scenario(ProtocolKind protocol) {
  ScenarioConfig config;
  config.seed = 11;
  config.nodes = 30;
  config.width_m = 600.0;
  config.height_m = 600.0;
  config.range_m = 250.0;
  config.protocol = protocol;
  config.pairs = 2;
  config.cbr_interval = 1.0;
  config.payload_bytes = 128;
  config.traffic_start = 1.0;
  config.traffic_stop = 8.0;
  config.sim_end = 15.0;
  return config;
}

TEST(DrawPairs, EndpointsDistinctAndInRange) {
  des::Rng rng(5);
  const auto pairs = draw_pairs(20, 50, rng);
  ASSERT_EQ(pairs.size(), 50u);
  for (const auto& [src, dst] : pairs) {
    EXPECT_LT(src, 20u);
    EXPECT_LT(dst, 20u);
    EXPECT_NE(src, dst);
  }
}

TEST(ProtocolKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(ProtocolKind::Ssaf), "SSAF");
  EXPECT_STREQ(to_string(ProtocolKind::Routeless), "Routeless Routing");
  EXPECT_STREQ(to_string(ProtocolKind::Aodv), "AODV");
}

TEST(SimInstance, RunsAndProducesSaneMetrics) {
  const ScenarioResult r = run_scenario(small_scenario(ProtocolKind::Ssaf));
  EXPECT_GT(r.sent, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GE(r.delivery_ratio, 0.0);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.mac_packets, r.sent);
  EXPECT_GT(r.events_executed, 0u);
  EXPECT_GE(r.mean_hops, 1.0);
  EXPECT_GT(r.mean_delay_s, 0.0);
}

TEST(SimInstance, DeterministicForSameSeed) {
  const ScenarioResult a = run_scenario(small_scenario(ProtocolKind::Routeless));
  const ScenarioResult b = run_scenario(small_scenario(ProtocolKind::Routeless));
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.mac_packets, b.mac_packets);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.mean_delay_s, b.mean_delay_s);
}

TEST(SimInstance, SeedChangesOutcome) {
  ScenarioConfig c1 = small_scenario(ProtocolKind::Ssaf);
  ScenarioConfig c2 = c1;
  c2.seed = 12;
  const ScenarioResult a = run_scenario(c1);
  const ScenarioResult b = run_scenario(c2);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(SimInstance, ExplicitPairsHonored) {
  ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  config.explicit_pairs = {{0, 1}, {2, 3}};
  SimInstance sim(config);
  ASSERT_EQ(sim.pairs().size(), 2u);
  EXPECT_EQ(sim.pairs()[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
}

TEST(SimInstance, BidirectionalDoublesTraffic) {
  ScenarioConfig uni = small_scenario(ProtocolKind::Ssaf);
  ScenarioConfig bi = uni;
  bi.bidirectional = true;
  const ScenarioResult a = run_scenario(uni);
  const ScenarioResult b = run_scenario(bi);
  EXPECT_GT(b.sent, a.sent * 3 / 2);
}

TEST(SimInstance, TracePathsRecordsWhenEnabled) {
  ScenarioConfig config = small_scenario(ProtocolKind::Routeless);
  config.trace_paths = true;
  SimInstance sim(config);
  sim.run();
  ASSERT_NE(sim.path_trace(), nullptr);
  EXPECT_FALSE(sim.path_trace()->paths().empty());
}

// SSAF takes config.ssaf as given: a TTL of 0 lets only the source's own
// transmission reach anyone, so every delivery is one hop.
TEST(SimInstance, SsafTtlIsHonored) {
  ScenarioConfig config = bench::figure1_setup();
  config.protocol = ProtocolKind::Ssaf;
  const ScenarioResult multi_hop = run_scenario(config);
  EXPECT_GT(multi_hop.mean_hops, 1.0);

  config.ssaf.ttl = 0;
  const ScenarioResult one_hop = run_scenario(config);
  EXPECT_GT(one_hop.delivered, 0u);
  EXPECT_LE(one_hop.mean_hops, 1.0);
}

TEST(SimInstance, FailureModelCreatedOnlyWhenRequested) {
  ScenarioConfig config = small_scenario(ProtocolKind::Routeless);
  SimInstance without(config);
  EXPECT_EQ(without.failures(), nullptr);
  config.failure_fraction = 0.1;
  SimInstance with(config);
  EXPECT_NE(with.failures(), nullptr);
}

TEST(SimInstance, RadioCalibratedToConfiguredRange) {
  ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  config.range_m = 180.0;
  SimInstance sim(config);
  EXPECT_NEAR(sim.network().channel().nominal_range_m(), 180.0, 1.0);
}

// Per-node objects are built in the channel's layout order (grid cells
// row-major at the interference range, ids ascending inside a cell), so
// each kind of object ascends in address along that order. The instance is
// built and destroyed on a fresh thread, whose pools start empty and hand
// out chunks in ascending address order.
TEST(SimInstance, NodeObjectsAreLaidOutInGridCellOrder) {
  ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  config.nodes = 400;
  config.range_m = 100.0;
  config.width_m = 1500.0;
  config.height_m = 1500.0;

  struct Seen {
    std::vector<std::uint32_t> order;
    std::vector<geom::Vec2> positions;  ///< by id
    double cell_m = 0.0;
    /// Addresses of transceiver, node, MAC and protocol, by id.
    std::vector<std::array<std::uintptr_t, 4>> addresses;
  } seen;
  const auto observe = [&config, &seen]() {
    SimInstance sim(config);
    net::Network& network = sim.network();
    const phy::Channel& channel = network.channel();
    seen.order = channel.layout_order();
    seen.cell_m = channel.interference_range_m();
    for (std::uint32_t id = 0; id < network.size(); ++id) {
      net::Node& node = network.node(id);
      seen.positions.push_back(channel.position(id));
      seen.addresses.push_back(
          {reinterpret_cast<std::uintptr_t>(&channel.transceiver(id)),
           reinterpret_cast<std::uintptr_t>(&node),
           reinterpret_cast<std::uintptr_t>(&node.mac()),
           reinterpret_cast<std::uintptr_t>(&node.protocol())});
    }
  };
  std::exception_ptr failure;
  std::thread([&observe, &failure]() {
    try {
      observe();
    } catch (...) {
      failure = std::current_exception();
    }
  }).join();
  if (failure) std::rethrow_exception(failure);

  const std::size_t n = config.nodes;
  ASSERT_EQ(seen.positions.size(), n);
  ASSERT_GE(config.width_m, 4 * seen.cell_m);
  ASSERT_GE(config.height_m, 4 * seen.cell_m);

  // Placement still decides every id's position.
  des::Rng placement_rng = des::Rng(config.seed).fork("placement");
  const geom::Terrain terrain(config.width_m, config.height_m);
  const std::vector<geom::Vec2> placed =
      geom::place_uniform(terrain, n, placement_rng);
  for (std::uint32_t id = 0; id < n; ++id) {
    EXPECT_EQ(seen.positions[id].x, placed[id].x) << id;
    EXPECT_EQ(seen.positions[id].y, placed[id].y) << id;
  }

  // The order is a permutation of the ids sorted by (row-major cell, id).
  const auto cols =
      static_cast<std::size_t>(std::ceil(config.width_m / seen.cell_m));
  const auto rows =
      static_cast<std::size_t>(std::ceil(config.height_m / seen.cell_m));
  auto cell_of = [&](std::uint32_t id) {
    const geom::Vec2 p = seen.positions[id];
    const auto col =
        std::min(static_cast<std::size_t>(p.x / seen.cell_m), cols - 1);
    const auto row =
        std::min(static_cast<std::size_t>(p.y / seen.cell_m), rows - 1);
    return row * cols + col;
  };
  std::vector<std::uint32_t> want(n);
  for (std::uint32_t id = 0; id < n; ++id) want[id] = id;
  std::sort(want.begin(), want.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::pair(cell_of(a), a) < std::pair(cell_of(b), b);
  });
  ASSERT_EQ(seen.order, want);

  const char* const kinds[] = {"transceiver", "node", "mac", "protocol"};
  for (std::size_t k = 0; k < 4; ++k) {
    std::size_t i = 1;
    while (i < n && seen.addresses[seen.order[i - 1]][k] <
                        seen.addresses[seen.order[i]][k]) {
      ++i;
    }
    EXPECT_EQ(i, n) << kinds[k] << " addresses stop ascending at layout index "
                    << i;
  }
}

// Compare two summaries bit-exactly (NaN-safe): determinism means identical
// doubles, not merely close ones.
void expect_bit_identical(const util::Summary& a, const util::Summary& b,
                          const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  EXPECT_EQ(bits(a.mean), bits(b.mean)) << what << ".mean";
  EXPECT_EQ(bits(a.stddev), bits(b.stddev)) << what << ".stddev";
  EXPECT_EQ(bits(a.min), bits(b.min)) << what << ".min";
  EXPECT_EQ(bits(a.max), bits(b.max)) << what << ".max";
  EXPECT_EQ(bits(a.ci95), bits(b.ci95)) << what << ".ci95";
}

// A bare step() loop is never granted an inline hand-off, so it is the
// reference path for the channel walker's inline runs: run_until(T) plus one
// step() must execute the same events and leave the same registry, the
// hand-off and queue-depth counts included, as stepping one event at a
// time to the first event past T.
TEST(SimInstance, InlineHandOffMatchesBareStepOracle) {
  struct Outcome {
    std::uint64_t events = 0;
    std::uint64_t delivered = 0;
    std::vector<std::pair<std::string, std::uint64_t>> metrics;
  };
  constexpr des::Time kHorizon = 12.0;
  for (const ProtocolKind protocol :
       {ProtocolKind::Routeless, ProtocolKind::Aodv, ProtocolKind::Ssaf}) {
    SCOPED_TRACE(to_string(protocol));
    ScenarioConfig config = bench::figure3_setup();
    config.protocol = protocol;
    config.failure_fraction = 0.10;
    // One instance at a time: pools are thread-local, so two live
    // instances would see each other's allocations.
    const auto outcome = [&](bool stepped) {
      SimInstance sim(config);
      des::Scheduler& sched = sim.scheduler();
      if (stepped) {
        sim.run_until(0.0);
        while (sched.step() && sched.now() <= kHorizon) {
        }
      } else {
        sim.run_until(kHorizon);
        sched.step();
      }
      const ScenarioResult r = sim.result();
      Outcome o{r.events_executed, r.delivered, {}};
      for (const obs::Metric& m : r.metrics.snapshot()) {
        // Pool counters describe the thread's arenas, not the run.
        if (m.name.rfind("pool.", 0) != 0) {
          o.metrics.emplace_back(m.name, m.value);
        }
      }
      return o;
    };
    const Outcome fused = outcome(false);
    const Outcome oracle = outcome(true);
    EXPECT_GT(fused.delivered, 0u);
    EXPECT_EQ(fused.events, oracle.events);
    EXPECT_EQ(fused.delivered, oracle.delivered);
    EXPECT_EQ(fused.metrics, oracle.metrics);
    std::uint64_t inlined = 0;
    for (const auto& [name, value] : fused.metrics) {
      if (name == obs::metric::kDesEventsInline) inlined = value;
    }
    EXPECT_GT(inlined, fused.events / 2);
  }
}

// A contract violation inside a handler reaches the caller with the sim
// time it fired at and the events executed by then, the failing one
// included.
TEST(SimInstance, HandlerFailureNamesSimTimeAndEventsExecuted) {
  ScenarioConfig config = small_scenario(ProtocolKind::Routeless);
  config.traffic_start = 0.1;  // so that other events run first
  SimInstance sim(config);
  sim.scheduler().schedule_at(0.5, []() {
    const int budget = 0;
    RRNET_EXPECTS(budget > 0);
  });
  std::string message;
  EXPECT_THROW(
      {
        try {
          sim.run();
        } catch (const ContractViolation& e) {
          message = e.what();
          throw;
        }
      },
      ContractViolation);
  const std::uint64_t executed = sim.scheduler().executed_count();
  EXPECT_GT(executed, 1u);
  EXPECT_NE(message.find("precondition failed: budget > 0"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("(at sim time 0.5 s, events executed: " +
                         std::to_string(executed) + ")"),
            std::string::npos)
      << message;
}

TEST(SimInstance, OtherHandlerExceptionsPassThroughUnchanged) {
  SimInstance sim(small_scenario(ProtocolKind::Routeless));
  sim.scheduler().schedule_at(0.5, []() { throw std::runtime_error("boom"); });
  try {
    sim.run();
    ADD_FAILURE() << "run() returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Replication, ParallelIsBitIdenticalToSerial) {
  const ScenarioConfig base = small_scenario(ProtocolKind::Ssaf);
  const Aggregated serial = run_replications(base, 4, /*threads=*/1);
  const Aggregated parallel = run_replications(base, 4, /*threads=*/4);
  expect_bit_identical(serial.delivery_ratio, parallel.delivery_ratio,
                       "delivery_ratio");
  expect_bit_identical(serial.delay_s, parallel.delay_s, "delay_s");
  expect_bit_identical(serial.hops, parallel.hops, "hops");
  expect_bit_identical(serial.mac_packets, parallel.mac_packets,
                       "mac_packets");
  expect_bit_identical(serial.mac_per_delivered, parallel.mac_per_delivered,
                       "mac_per_delivered");
  EXPECT_EQ(serial.replications, 4u);
}

TEST(Replication, AdjacentBaseSeedsDoNotShareReplications) {
  // Regression for the base.seed + i overlap: with additive seeding, base
  // seed 1 replication 2 and base seed 3 replication 0 were the SAME run.
  ScenarioConfig a = small_scenario(ProtocolKind::Ssaf);
  a.seed = 1;
  ScenarioConfig b = a;
  b.seed = 3;
  const Aggregated agg_a = run_replications(a, 4, /*threads=*/2);
  const Aggregated agg_b = run_replications(b, 4, /*threads=*/2);
  // Identical replication sets would make every aggregate coincide; the
  // mac_packets totals are fine-grained enough to distinguish real runs.
  EXPECT_NE(agg_a.mac_packets.mean, agg_b.mac_packets.mean);
}

TEST(Replication, SummariesCoverAllReplications) {
  const Aggregated agg =
      run_replications(small_scenario(ProtocolKind::Ssaf), 3, 3);
  EXPECT_EQ(agg.delivery_ratio.count, 3u);
  EXPECT_EQ(agg.mac_packets.count, 3u);
  EXPECT_GT(agg.mac_packets.mean, 0.0);
}

TEST(Replication, WorkerFailureIsRethrownOnCaller) {
  // A one-node scenario violates SimInstance's precondition in every
  // replication. The failure must reach the caller as a catchable
  // ContractViolation naming the lowest failed replication and its seeds,
  // not escape a worker thread into std::terminate.
  ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
  config.nodes = 1;
  config.seed = 77;
  std::string message;
  EXPECT_THROW(
      {
        try {
          (void)run_replications(config, 4, /*threads=*/4);
        } catch (const ContractViolation& e) {
          message = e.what();
          throw;
        }
      },
      ContractViolation);
  EXPECT_NE(message.find("replication 0 "), std::string::npos) << message;
  EXPECT_NE(message.find("base seed 77"), std::string::npos) << message;
  EXPECT_NE(message.find("derived seed " +
                         std::to_string(des::derive_stream_seed(77, 0))),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("nodes >= 2"), std::string::npos) << message;
}

TEST(SerialFadingRng, DeterministicPerSeedAfterLinkRngSwitch) {
  // Stochastic fading draws come from counter-based per-link streams
  // (des::LinkRng). This pins the scheme down: per-seed reproducibility
  // and seed sensitivity.
  ScenarioConfig config;
  config.seed = 5150;
  config.nodes = 110;
  config.width_m = 1300.0;
  config.height_m = 900.0;
  config.range_m = 250.0;
  config.propagation = PropagationKind::Rayleigh;
  config.protocol = ProtocolKind::Counter1Flooding;
  config.pairs = 2;
  config.cbr_interval = 0.5;
  config.payload_bytes = 256;
  config.traffic_start = 1.0;
  config.traffic_stop = 5.0;
  config.sim_end = 7.0;
  const ScenarioResult a = run_scenario(config);
  const ScenarioResult b = run_scenario(config);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
  EXPECT_EQ(a.mac_packets, b.mac_packets);
  EXPECT_EQ(a.channel_transmissions, b.channel_transmissions);

  ScenarioConfig other = config;
  other.seed = 5151;
  const ScenarioResult c = run_scenario(other);
  EXPECT_NE(std::tie(a.delivered, a.mean_delay_s, a.mac_packets),
            std::tie(c.delivered, c.mean_delay_s, c.mac_packets));
}

// One small SSAF scenario per propagation model, pinned to the outcomes
// captured before receiver lists were kept per sender. The figure CSVs pin
// only free space; this is where the other four models' outcomes live.
TEST(PropagationOutcomes, PinnedForEveryModel) {
  struct Pin {
    PropagationKind kind;
    const char* name;
    std::uint64_t sent;
    std::uint64_t delivered;
    std::uint64_t mac_packets;
    std::uint64_t channel_transmissions;
    std::uint64_t signals_arrived;
    std::uint64_t mean_delay_bits;  ///< bit pattern of mean_delay_s
  };
  const Pin pins[] = {
      {PropagationKind::FreeSpace, "FreeSpace", 14, 14, 294, 294, 8526,
       0x3f6834e389856edb},
      {PropagationKind::TwoRay, "TwoRay", 14, 14, 220, 220, 4523,
       0x3f68a832257ffeb7},
      {PropagationKind::LogDistance, "LogDistance", 14, 14, 253, 253, 6535,
       0x3f68b5b6c01779b7},
      {PropagationKind::Rayleigh, "Rayleigh", 14, 14, 294, 294, 6911,
       0x3f6b6b68d8166f6e},
      {PropagationKind::Shadowing, "Shadowing", 14, 14, 276, 276, 7414,
       0x3f6442588e5f546e},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    ScenarioConfig config = small_scenario(ProtocolKind::Ssaf);
    config.propagation = pin.kind;
    const ScenarioResult r = run_scenario(config);
    EXPECT_EQ(r.sent, pin.sent);
    EXPECT_EQ(r.delivered, pin.delivered);
    EXPECT_EQ(r.mac_packets, pin.mac_packets);
    EXPECT_EQ(r.channel_transmissions, pin.channel_transmissions);
    EXPECT_EQ(r.metrics.value("phy.signals_arrived"), pin.signals_arrived);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean_delay_s),
              pin.mean_delay_bits)
        << "mean_delay_s = " << r.mean_delay_s;
  }
}

TEST(Sweep, BuildsLabeledTable) {
  SweepSpec spec;
  spec.x_label = "interval_s";
  spec.x_values = {1.0, 2.0};
  spec.replications = 1;
  ScenarioConfig base = small_scenario(ProtocolKind::Ssaf);
  Sweep sweep(spec, base);
  sweep.run("ssaf", ProtocolKind::Ssaf, [](ScenarioConfig& c, double x) {
    c.cbr_interval = x;
  });
  const util::Table table = sweep.table();
  EXPECT_EQ(table.rows(), 2u);
  // x + 4 paper metrics + 4 observability counters per series.
  EXPECT_EQ(table.columns(), 9u);
  EXPECT_DOUBLE_EQ(std::get<double>(table.at(0, 0)), 1.0);
  EXPECT_GT(std::get<double>(table.at(0, 1)), 0.0);  // delivery ratio
  // SSAF arms an election per received flood copy; the elec_won counter
  // must be live (relays happened, so someone won).
  EXPECT_GT(std::get<double>(table.at(0, 8)), 0.0);
}

}  // namespace
}  // namespace rrnet::sim

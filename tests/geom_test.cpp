#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "des/rng.hpp"
#include "geom/placement.hpp"
#include "geom/spatial_grid.hpp"
#include "geom/terrain.hpp"
#include "geom/vec2.hpp"
#include "util/contracts.hpp"

namespace rrnet::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
}

TEST(Vec2, NormAndDistance) {
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({1, 1}, {4, 5}), 25.0);
}

TEST(Vec2, DistanceToSegmentInterior) {
  // Point above the middle of a horizontal segment.
  EXPECT_DOUBLE_EQ(distance_to_segment({5, 3}, {0, 0}, {10, 0}), 3.0);
}

TEST(Vec2, DistanceToSegmentClampsToEndpoints) {
  EXPECT_DOUBLE_EQ(distance_to_segment({-3, 4}, {0, 0}, {10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance_to_segment({13, 4}, {0, 0}, {10, 0}), 5.0);
}

TEST(Vec2, DistanceToDegenerateSegment) {
  EXPECT_DOUBLE_EQ(distance_to_segment({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(Terrain, RejectsNonPositiveDimensions) {
  EXPECT_THROW(Terrain(0.0, 10.0), rrnet::ContractViolation);
  EXPECT_THROW(Terrain(10.0, -1.0), rrnet::ContractViolation);
}

TEST(Terrain, ContainsAndClamp) {
  const Terrain t(100.0, 50.0);
  EXPECT_TRUE(t.contains({0, 0}));
  EXPECT_TRUE(t.contains({100, 50}));
  EXPECT_FALSE(t.contains({100.1, 0}));
  EXPECT_FALSE(t.contains({5, -0.1}));
  EXPECT_EQ(t.clamp({-5, 60}), (Vec2{0, 50}));
  EXPECT_DOUBLE_EQ(t.area(), 5000.0);
  EXPECT_EQ(t.center(), (Vec2{50, 25}));
  EXPECT_NEAR(t.diameter(), 111.803, 1e-3);
}

TEST(Placement, UniformStaysInsideAndCounts) {
  const Terrain t(1000.0, 500.0);
  des::Rng rng(3);
  const auto pts = place_uniform(t, 250, rng);
  ASSERT_EQ(pts.size(), 250u);
  for (const Vec2& p : pts) EXPECT_TRUE(t.contains(p));
}

TEST(Placement, UniformCoversAllQuadrants) {
  const Terrain t(100.0, 100.0);
  des::Rng rng(5);
  const auto pts = place_uniform(t, 400, rng);
  int quadrant[4] = {0, 0, 0, 0};
  for (const Vec2& p : pts) {
    const int q = (p.x > 50.0 ? 1 : 0) + (p.y > 50.0 ? 2 : 0);
    ++quadrant[q];
  }
  for (int q = 0; q < 4; ++q) EXPECT_GT(quadrant[q], 50);
}

TEST(SpatialGrid, RejectsOutOfTerrainPositions) {
  const Terrain t(100.0, 100.0);
  EXPECT_THROW(SpatialGrid(t, 10.0, {{150.0, 0.0}}), rrnet::ContractViolation);
}

TEST(SpatialGrid, QueryFindsSelfAndNeighbors) {
  const Terrain t(100.0, 100.0);
  SpatialGrid grid(t, 25.0, {{10, 10}, {20, 10}, {90, 90}});
  std::vector<std::uint32_t> out;
  grid.query({10, 10}, 15.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  grid.query({90, 90}, 5.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2}));
  grid.query({50, 50}, 5.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialGrid, UpdatePositionMovesAcrossCells) {
  const Terrain t(100.0, 100.0);
  SpatialGrid grid(t, 10.0, {{5, 5}});
  std::vector<std::uint32_t> out;
  grid.update_position(0, {95, 95});
  grid.query({5, 5}, 8.0, out);
  EXPECT_TRUE(out.empty());
  grid.query({95, 95}, 8.0, out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(grid.position(0), (Vec2{95, 95}));
}

// Query output is sorted ascending by id and repeatable, whatever
// update_position churn did to the grid's internal cell spans. Fades no
// longer depend on it (des::LinkRng keys each draw by link and frame), and
// phy::ReceiverTable re-sorts receivers by (distance, id); the channel's
// determinism contract is that equal arrivals are handled in receiver-id
// order (ReceiverTable.DifferentialFuzzAgainstBruteForce).
TEST(SpatialGrid, QueryOrderSortedAndStableUnderChurn) {
  const Terrain t(200.0, 200.0);
  des::Rng rng(42);
  std::vector<Vec2> pts;
  pts.reserve(64);
  for (int i = 0; i < 64; ++i) {
    pts.push_back({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
  }
  SpatialGrid grid(t, 50.0, pts);
  // Churn: bounce nodes between cells in an id order chosen to shuffle
  // every cell's vector, then move them back to their original position.
  for (std::uint32_t pass = 0; pass < 3; ++pass) {
    for (std::uint32_t id = 63; id < 64; --id) {
      grid.update_position(id, {rng.uniform(0.0, 200.0),
                                rng.uniform(0.0, 200.0)});
    }
  }
  for (std::uint32_t id = 0; id < 64; ++id) {
    grid.update_position(id, pts[id]);
  }
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> again;
  for (int q = 0; q < 16; ++q) {
    const Vec2 center{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
    grid.query(center, 75.0, out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()))
        << "query " << q << " not sorted by id";
    grid.query(center, 75.0, again);
    EXPECT_EQ(out, again) << "query " << q << " not repeatable";
  }
}

// Property: grid query equals brute force for random layouts / radii / cell
// sizes.
struct GridCase {
  std::uint64_t seed;
  double cell;
  double radius;
};

class SpatialGridPropertyTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(SpatialGridPropertyTest, MatchesBruteForce) {
  const GridCase c = GetParam();
  const Terrain t(1000.0, 800.0);
  des::Rng rng(c.seed);
  const auto pts = place_uniform(t, 300, rng);
  SpatialGrid grid(t, c.cell, pts);
  std::vector<std::uint32_t> got;
  for (int q = 0; q < 25; ++q) {
    const Vec2 center{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 800.0)};
    grid.query(center, c.radius, got);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i], center) <= c.radius) expected.push_back(i);
    }
    EXPECT_EQ(got, expected) << "seed=" << c.seed << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpatialGridPropertyTest,
    ::testing::Values(GridCase{1, 50.0, 100.0}, GridCase{2, 250.0, 100.0},
                      GridCase{3, 100.0, 10.0}, GridCase{4, 33.0, 400.0},
                      GridCase{5, 1500.0, 200.0}));

// Differential fuzz: the CSR index with epoch-deferred mobility updates
// must agree with a brute-force O(n) reference across interleaved move /
// query / explicit-compact operations, in both query forms. The mix is
// tuned so queries run in every internal state — clean (freshly
// compacted), dirty (dislodged list populated), and across automatic
// compactions triggered both by scan debt (many dirty queries) and by the
// dislodged hard cap (move bursts).
TEST(SpatialGrid, DifferentialFuzzAgainstBruteForce) {
  constexpr std::uint32_t kNodes = 257;  // not a multiple of the cell grid
  constexpr int kOps = 4000;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const Terrain t(1000.0, 640.0);
    des::Rng rng(seed);
    std::vector<Vec2> reference = place_uniform(t, kNodes, rng);
    SpatialGrid grid(t, 120.0, reference);
    std::size_t compactions_seen = 0;
    std::vector<std::uint32_t> got;
    std::vector<SpatialGrid::Hit> hits;
    for (int op = 0; op < kOps; ++op) {
      const double dice = rng.uniform(0.0, 1.0);
      if (dice < 0.55) {
        // Move: half local jitter (often same cell), half teleport.
        const auto id =
            static_cast<std::uint32_t>(rng.uniform_int(0, kNodes - 1));
        Vec2 next;
        if (rng.uniform(0.0, 1.0) < 0.5) {
          next = t.clamp({reference[id].x + rng.uniform(-30.0, 30.0),
                          reference[id].y + rng.uniform(-30.0, 30.0)});
        } else {
          next = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 640.0)};
        }
        reference[id] = next;
        grid.update_position(id, next);
      } else if (dice < 0.97) {
        // Query: compare against brute force at a random center/radius.
        const Vec2 center{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 640.0)};
        const double radius = rng.uniform(1.0, 500.0);
        grid.query(center, radius, got);
        std::vector<std::uint32_t> expected;
        for (std::uint32_t i = 0; i < kNodes; ++i) {
          if (distance(reference[i], center) <= radius) expected.push_back(i);
        }
        EXPECT_EQ(got, expected) << "seed=" << seed << " op=" << op;
        if (got != expected) return;  // one detailed failure is enough
        // The distance query finds the same nodes, each with its squared
        // distance from the current position, bit for bit.
        grid.query_hits(center, radius, hits);
        got.clear();
        for (const SpatialGrid::Hit& hit : hits) {
          ASSERT_LT(hit.id, kNodes);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.distance_sq),
                    std::bit_cast<std::uint64_t>(
                        distance_sq(reference[hit.id], center)))
              << "seed=" << seed << " op=" << op << " id=" << hit.id;
          got.push_back(hit.id);
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << "seed=" << seed << " op=" << op;
      } else {
        // Explicit epoch boundary.
        grid.compact();
        EXPECT_EQ(grid.pending_updates(), 0u);
      }
      if (grid.pending_updates() == 0) ++compactions_seen;
      EXPECT_EQ(grid.position(static_cast<std::uint32_t>(op) % kNodes),
                reference[op % kNodes]);
    }
    // The op mix must actually have exercised epoch transitions.
    EXPECT_GT(compactions_seen, 5u) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace rrnet::geom

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "des/rng.hpp"

namespace rrnet::des {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 8.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 8.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of 2..6 hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(10);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(2.5);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 2.5, 0.03);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, RayleighMeanMatches) {
  Rng rng(19);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.rayleigh(1.0);
  // E[Rayleigh(sigma)] = sigma * sqrt(pi/2) ~= 1.2533.
  EXPECT_NEAR(sum / kN, 1.2533, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ForkIsDeterministicAndTagSensitive) {
  Rng root(42);
  Rng a1 = root.fork("mac");
  Rng a2 = root.fork("mac");
  Rng b = root.fork("phy");
  EXPECT_EQ(a1.next_u64(), a2.next_u64());
  EXPECT_NE(a1.seed(), b.seed());
}

TEST(Rng, ForkIndexSensitive) {
  Rng root(42);
  Rng n0 = root.fork("node", 0);
  Rng n1 = root.fork("node", 1);
  EXPECT_NE(n0.seed(), n1.seed());
}

TEST(Rng, ForkedStreamsLookIndependent) {
  Rng root(99);
  Rng a = root.fork("a");
  Rng b = root.fork("b");
  // Correlation of 10k pairs should be near zero.
  double sa = 0, sb = 0, sab = 0, saa = 0, sbb = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    const double x = a.uniform01();
    const double y = b.uniform01();
    sa += x;
    sb += y;
    sab += x * y;
    saa += x * x;
    sbb += y * y;
  }
  const double cov = sab / kN - (sa / kN) * (sb / kN);
  const double var_a = saa / kN - (sa / kN) * (sa / kN);
  const double var_b = sbb / kN - (sb / kN) * (sb / kN);
  EXPECT_LT(std::abs(cov / std::sqrt(var_a * var_b)), 0.05);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng root(7);
  Rng probe(7);
  (void)root.fork("x");
  EXPECT_EQ(root.next_u64(), probe.next_u64());
}

// Property: chi-squared uniformity of uniform_int across parameterized
// range widths.
class UniformIntRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(UniformIntRangeTest, RoughlyUniform) {
  const int buckets = GetParam();
  Rng rng(1000 + buckets);
  std::vector<int> counts(buckets, 0);
  const int kN = 20000 * buckets;
  for (int i = 0; i < kN; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, buckets - 1))];
  }
  const double expected = static_cast<double>(kN) / buckets;
  double chi2 = 0.0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // Very loose: 3x the dof; catches systematic bias, not fine statistics.
  EXPECT_LT(chi2, 3.0 * buckets + 30.0);
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformIntRangeTest,
                         ::testing::Values(2, 3, 7, 16, 100));

TEST(Splitmix, KnownNonDegenerate) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);
}

TEST(DeriveStreamSeed, NoAdditiveOverlapBetweenBaseSeeds) {
  // Regression: replication seeds used to be base + i, so a 10-replication
  // run at base seed 1 shared replications 4..9 with a run at base seed 5.
  // Hash-derived seeds must never reproduce that additive aliasing.
  for (std::uint64_t a = 1; a <= 8; ++a) {
    for (std::uint64_t b = a + 1; b <= 8; ++b) {
      for (std::uint64_t i = 0; i < 10; ++i) {
        for (std::uint64_t j = 0; j < 10; ++j) {
          EXPECT_NE(derive_stream_seed(a, i), derive_stream_seed(b, j))
              << "bases " << a << "," << b << " indices " << i << "," << j;
        }
      }
    }
  }
}

TEST(DeriveStreamSeed, AdjacentBaseSeedsYieldDisjointStreams) {
  // Stronger than seed inequality: the streams themselves must be disjoint.
  // Draw the first k outputs of every replication stream for several
  // adjacent base seeds; no value may appear in two streams.
  constexpr std::uint64_t kBases[] = {1, 2, 3, 4, 5};
  constexpr std::uint64_t kReps = 10;
  constexpr int kDraws = 64;
  std::set<std::uint64_t> all_outputs;
  std::size_t total = 0;
  for (const std::uint64_t base : kBases) {
    for (std::uint64_t i = 0; i < kReps; ++i) {
      Rng rng(derive_stream_seed(base, i));
      for (int d = 0; d < kDraws; ++d) {
        all_outputs.insert(rng.next_u64());
        ++total;
      }
    }
  }
  EXPECT_EQ(all_outputs.size(), total);
}

TEST(DeriveStreamSeed, DeterministicAndIndexSensitive) {
  EXPECT_EQ(derive_stream_seed(42, 7), derive_stream_seed(42, 7));
  EXPECT_NE(derive_stream_seed(42, 7), derive_stream_seed(42, 8));
  EXPECT_NE(derive_stream_seed(42, 7), derive_stream_seed(43, 7));
}

// --- Counter-based per-link streams (stochastic fading draws) ---

TEST(LinkRng, SameKeySameDrawAnywhere) {
  // Whoever constructs the stream for (base, tx, rx, draw), whenever, gets
  // the exact same values — the draw is a pure function of its key.
  constexpr std::uint64_t kBase = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t tx = 0; tx < 4; ++tx) {
    for (std::uint32_t rx = 0; rx < 4; ++rx) {
      if (tx == rx) continue;
      for (std::uint64_t draw = 0; draw < 4; ++draw) {
        LinkRng a(kBase, tx, rx, draw);
        LinkRng b(kBase, tx, rx, draw);
        EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
        EXPECT_EQ(a.rng().rayleigh(1.0), b.rng().rayleigh(1.0));
        EXPECT_EQ(a.rng().normal(0.0, 4.0), b.rng().normal(0.0, 4.0));
      }
    }
  }
}

TEST(LinkRng, ReplayIndependentOfEvaluationOrder) {
  // The channel evaluates links in whatever order transmissions happen.
  // Interleaving must not matter: draw the same keys in forward and
  // reverse order and compare.
  constexpr std::uint64_t kBase = 77;
  struct Key {
    std::uint32_t tx, rx;
    std::uint64_t draw;
  };
  std::vector<Key> keys;
  for (std::uint32_t tx = 0; tx < 8; ++tx) {
    for (std::uint32_t rx = 0; rx < 8; ++rx) {
      if (tx != rx) keys.push_back({tx, rx, tx + rx});
    }
  }
  std::vector<double> forward, backward;
  for (const Key& k : keys) {
    forward.push_back(LinkRng(kBase, k.tx, k.rx, k.draw).rng().uniform01());
  }
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    backward.push_back(
        LinkRng(kBase, it->tx, it->rx, it->draw).rng().uniform01());
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(LinkRng, DistinctLinksAndDrawsDisjoint) {
  // Distinct (tx, rx, draw) keys must open streams that never collide in
  // their first outputs; in particular (tx, rx) and (rx, tx) are different
  // links and draw indices separate successive frames on one link.
  constexpr std::uint64_t kBase = 20260808;
  std::set<std::uint64_t> outputs;
  std::size_t total = 0;
  for (std::uint32_t tx = 0; tx < 6; ++tx) {
    for (std::uint32_t rx = 0; rx < 6; ++rx) {
      if (tx == rx) continue;
      for (std::uint64_t draw = 0; draw < 8; ++draw) {
        LinkRng link(kBase, tx, rx, draw);
        for (int i = 0; i < 8; ++i) {
          outputs.insert(link.rng().next_u64());
          ++total;
        }
      }
    }
  }
  EXPECT_EQ(outputs.size(), total);
}

TEST(LinkRng, BaseSeedSensitive) {
  // Different runs (different channel rng seeds) must not share link
  // streams.
  LinkRng a(1, 2, 3, 4);
  LinkRng b(2, 2, 3, 4);
  EXPECT_NE(a.rng().next_u64(), b.rng().next_u64());
}

TEST(LinkStreamSeed, DeterministicPureFunction) {
  EXPECT_EQ(link_stream_seed(9, 1, 2, 3), link_stream_seed(9, 1, 2, 3));
  EXPECT_NE(link_stream_seed(9, 1, 2, 3), link_stream_seed(9, 2, 1, 3));
  EXPECT_NE(link_stream_seed(9, 1, 2, 3), link_stream_seed(9, 1, 2, 4));
  EXPECT_NE(link_stream_seed(8, 1, 2, 3), link_stream_seed(9, 1, 2, 3));
}

}  // namespace
}  // namespace rrnet::des

// des::LadderQueue: ordering, FIFO discipline, a randomized model test,
// and cross-checks against des::QuadHeap, the scheduler's pop-order
// oracle, on a random workload and on the queue traffic of the paper's
// Fig. 4 node-failure runs.
#include "des/ladder_queue.hpp"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "des/quad_heap.hpp"

namespace rrnet::des {
namespace {

struct Keyed {
  double key;
  std::uint64_t sequence;  // insertion order, for FIFO among equal keys
};
struct KeyedTime {
  Time operator()(const Keyed& k) const noexcept { return k.key; }
};
struct KeyedBefore {
  bool operator()(const Keyed& a, const Keyed& b) const noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.sequence < b.sequence;
  }
};
using KeyedLadder = LadderQueue<Keyed, KeyedTime, KeyedBefore>;

TEST(LadderQueue, PopsInSortedOrder) {
  KeyedLadder queue;
  const std::vector<double> input = {7, 3, 9, 1, 4, 1, 8, 2, 6, 5, 0, 9};
  std::vector<Keyed> expected;
  for (std::size_t i = 0; i < input.size(); ++i) {
    queue.push({input[i], i});
    expected.push_back({input[i], i});
  }
  std::sort(expected.begin(), expected.end(), KeyedBefore{});
  for (const Keyed& e : expected) {
    ASSERT_FALSE(queue.empty());
    const Keyed got = queue.pop_top();
    EXPECT_EQ(got.key, e.key);
    EXPECT_EQ(got.sequence, e.sequence);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(LadderQueue, SingleElementAndClear) {
  KeyedLadder queue;
  EXPECT_TRUE(queue.empty());
  queue.push({42.0, 0});
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.top().key, 42.0);
  queue.pop();
  EXPECT_TRUE(queue.empty());
  queue.push({1.0, 1});
  queue.clear();
  EXPECT_TRUE(queue.empty());
  // Usable after clear, including times below anything seen before.
  queue.push({0.5, 2});
  queue.push({0.25, 3});
  EXPECT_EQ(queue.pop_top().key, 0.25);
  EXPECT_EQ(queue.pop_top().key, 0.5);
}

// Randomized property test mirroring the QuadHeap one: interleaved pushes
// and pops against a sorted reference model must agree exactly, including
// FIFO among equal keys. Key range deliberately small so bucket collisions
// and rung refinement are constantly exercised.
TEST(LadderQueue, MatchesReferenceModelUnderRandomWorkload) {
  std::mt19937_64 gen(0xC0FFEE);
  std::uniform_int_distribution<int> key_dist(0, 19);  // frequent ties
  std::uniform_int_distribution<int> op_dist(0, 99);

  KeyedLadder queue;
  std::vector<Keyed> model;  // kept sorted by (key, sequence)
  const KeyedBefore before{};
  std::uint64_t next_sequence = 0;

  for (int step = 0; step < 20000; ++step) {
    const bool do_push = model.empty() || op_dist(gen) < 55;
    if (do_push) {
      const Keyed item{static_cast<double>(key_dist(gen)), next_sequence++};
      queue.push(item);
      model.insert(std::upper_bound(model.begin(), model.end(), item, before),
                   item);
    } else {
      ASSERT_FALSE(queue.empty());
      const Keyed& expected = model.front();
      ASSERT_EQ(queue.top().key, expected.key) << "step " << step;
      ASSERT_EQ(queue.top().sequence, expected.sequence) << "step " << step;
      queue.pop();
      model.erase(model.begin());
    }
    ASSERT_EQ(queue.size(), model.size());
  }
  while (!queue.empty()) {
    const Keyed got = queue.pop_top();
    ASSERT_EQ(got.sequence, model.front().sequence);
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
}

// Equal keys must drain strictly in insertion order — including across the
// overflow threshold (entries with the same timestamp split between a
// rebuilt rung and the overflow region pushed afterwards).
TEST(LadderQueue, FifoAmongEqualKeys) {
  KeyedLadder queue;
  for (std::uint64_t i = 0; i < 100; ++i) queue.push({5.0, i});
  // Force a rebuild so the first batch lands in rungs/bottom, then push
  // more entries at the same key (they land in overflow).
  EXPECT_EQ(queue.top().sequence, 0u);
  for (std::uint64_t i = 100; i < 200; ++i) queue.push({5.0, i});
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(queue.pop_top().sequence, i);
  }
}

// A QuadHeap and a LadderQueue fed the same pushes: every pop must take the
// same entry from both, which is what keeps the scheduler's event order
// (and every result built on it) independent of the ladder's buckets.
struct Lockstep {
  QuadHeap<Keyed, KeyedBefore> heap;
  KeyedLadder ladder;
  std::uint64_t next_sequence = 0;
  std::uint64_t pops = 0;

  void push(double key) {
    const Keyed item{key, next_sequence++};
    heap.push(item);
    ladder.push(item);
  }
  /// Pops the earliest entry of both queues into `top`; false if the
  /// queues' sizes or the two entries differ.
  bool pop(Keyed& top) {
    if (ladder.size() != heap.size()) return false;
    top = heap.pop_top();
    const Keyed other = ladder.pop_top();
    ++pops;
    return other.key == top.key && other.sequence == top.sequence;
  }
  /// Pops both queues empty; false at the first disagreement.
  bool drain() {
    Keyed top;
    while (!heap.empty()) {
      if (!pop(top)) return false;
    }
    return ladder.empty();
  }
};

TEST(LadderQueue, CrossCheckAgainstQuadHeapOnRandomWorkload) {
  std::mt19937_64 gen(0xBADC0DE);
  std::uniform_real_distribution<double> time_dist(0.0, 64.0);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<int> burst_dist(1, 24);

  Lockstep queues;
  double now = 0.0;  // scheduler-like: pushes never go below the pop frontier
  for (int step = 0; step < 30000; ++step) {
    if (queues.heap.empty() || op_dist(gen) < 55) {
      const int burst = burst_dist(gen);
      for (int i = 0; i < burst; ++i) queues.push(now + time_dist(gen));
    } else {
      Keyed top;
      ASSERT_TRUE(queues.pop(top)) << "step " << step;
      now = top.key;
    }
  }
  EXPECT_TRUE(queues.drain());
}

// The queue traffic of the paper's Fig. 4 node-failure runs at n = 2*10^4:
// one failure toggle pending per node, far in the future and pushed again
// each time it fires, under bursts of near-term MAC and PHY events. Half
// the bursts share one time, and some land exactly at the pop frontier.
TEST(LadderQueue, CrossCheckAgainstQuadHeapOnFig4FailureChurn) {
  constexpr int kToggles = 20000;
  constexpr double kToggleMeanS = 9.0;
  constexpr std::uint64_t kPops = 120000;
  std::mt19937_64 gen(0xF164);
  std::exponential_distribution<double> toggle_lead(1.0 / kToggleMeanS);
  std::uniform_real_distribution<double> burst_lead(0.0, 1e-3);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> burst_dist(1, 4);

  Lockstep queues;
  std::vector<bool> is_toggle;  // by sequence number
  const auto push = [&](double t, bool toggle) {
    is_toggle.push_back(toggle);
    queues.push(t);
  };
  double now = 0.0;
  for (int i = 0; i < kToggles; ++i) push(toggle_lead(gen), true);
  while (queues.pops < kPops) {
    if (percent(gen) < 20) {
      const int burst = burst_dist(gen);
      const bool shared_time = percent(gen) < 50;
      double t = percent(gen) < 10 ? now : now + burst_lead(gen);
      for (int i = 0; i < burst; ++i) {
        if (i > 0 && !shared_time) t = now + burst_lead(gen);
        push(t, false);
      }
    } else {
      Keyed top;
      ASSERT_TRUE(queues.pop(top)) << "pop " << queues.pops;
      now = top.key;
      if (is_toggle[top.sequence]) push(now + toggle_lead(gen), true);
    }
  }
  EXPECT_GE(queues.ladder.high_water(), std::size_t{kToggles});
  EXPECT_TRUE(queues.drain());
}

}  // namespace
}  // namespace rrnet::des

// des::QuadHeap: ordering, determinism, and a randomized model test.
#include "des/quad_heap.hpp"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "mac/frame.hpp"
#include "mac/priority_queue.hpp"

namespace rrnet::des {
namespace {

struct IntLess {
  bool operator()(int a, int b) const noexcept { return a < b; }
};

TEST(QuadHeap, PopsInSortedOrder) {
  QuadHeap<int, IntLess> heap;
  const std::vector<int> input = {7, 3, 9, 1, 4, 1, 8, 2, 6, 5, 0, 9};
  for (int v : input) heap.push(v);
  std::vector<int> expected = input;
  std::sort(expected.begin(), expected.end());
  std::vector<int> popped;
  while (!heap.empty()) popped.push_back(heap.pop_top());
  EXPECT_EQ(popped, expected);
}

TEST(QuadHeap, SingleElementAndClear) {
  QuadHeap<int, IntLess> heap;
  EXPECT_TRUE(heap.empty());
  heap.push(42);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.top(), 42);
  heap.pop();
  EXPECT_TRUE(heap.empty());
  heap.push(1);
  heap.clear();
  EXPECT_TRUE(heap.empty());
}

struct Keyed {
  int key;
  std::uint64_t sequence;  // insertion order, for FIFO among equal keys
};
struct KeyedBefore {
  bool operator()(const Keyed& a, const Keyed& b) const noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.sequence < b.sequence;
  }
};

// Randomized property test: interleaved pushes and pops against a sorted
// reference model must agree exactly, including FIFO among equal keys.
TEST(QuadHeap, MatchesReferenceModelUnderRandomWorkload) {
  std::mt19937_64 gen(0xC0FFEE);
  std::uniform_int_distribution<int> key_dist(0, 19);  // frequent ties
  std::uniform_int_distribution<int> op_dist(0, 99);

  QuadHeap<Keyed, KeyedBefore> heap;
  std::vector<Keyed> model;  // kept sorted by (key, sequence)
  const KeyedBefore before{};
  std::uint64_t next_sequence = 0;

  for (int step = 0; step < 20000; ++step) {
    const bool do_push = model.empty() || op_dist(gen) < 55;
    if (do_push) {
      const Keyed item{key_dist(gen), next_sequence++};
      heap.push(item);
      model.insert(std::upper_bound(model.begin(), model.end(), item, before),
                   item);
    } else {
      ASSERT_FALSE(heap.empty());
      const Keyed& expected = model.front();
      ASSERT_EQ(heap.top().key, expected.key) << "step " << step;
      ASSERT_EQ(heap.top().sequence, expected.sequence) << "step " << step;
      heap.pop();
      model.erase(model.begin());
    }
    ASSERT_EQ(heap.size(), model.size());
  }
  while (!heap.empty()) {
    const Keyed got = heap.pop_top();
    ASSERT_EQ(got.sequence, model.front().sequence);
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
}

// Equal keys must drain strictly in insertion order — the determinism
// property the scheduler's same-timestamp FIFO guarantee rests on.
TEST(QuadHeap, FifoAmongEqualKeys) {
  QuadHeap<Keyed, KeyedBefore> heap;
  for (std::uint64_t i = 0; i < 100; ++i) heap.push({/*key=*/5, i});
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(heap.pop_top().sequence, i);
  }
}

// mac::TxQueue shares the tie-break discipline: FIFO among equal
// priorities, in both prioritized and plain-FIFO modes.
TEST(TxQueueTieBreak, FifoAmongEqualPriorities) {
  mac::TxQueue queue(/*capacity=*/64, /*prioritized=*/true);
  for (std::uint32_t i = 0; i < 8; ++i) {
    mac::Frame frame;
    frame.sequence = i;
    queue.push({frame, /*priority=*/0.25});
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    auto got = queue.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame.sequence, i);
  }
}

TEST(TxQueueTieBreak, PriorityThenFifo) {
  mac::TxQueue queue(/*capacity=*/64, /*prioritized=*/true);
  const double priorities[] = {0.5, 0.1, 0.5, 0.1, 0.3};
  for (std::uint32_t i = 0; i < 5; ++i) {
    mac::Frame frame;
    frame.sequence = i;
    queue.push({frame, priorities[i]});
  }
  // (0.1, seq 1), (0.1, seq 3), (0.3, seq 4), (0.5, seq 0), (0.5, seq 2)
  const std::uint32_t expected[] = {1, 3, 4, 0, 2};
  for (std::uint32_t e : expected) {
    auto got = queue.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame.sequence, e);
  }
}

}  // namespace
}  // namespace rrnet::des

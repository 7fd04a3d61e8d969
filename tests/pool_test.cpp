// util::PayloadPool: reuse, exhaustion fallback, and mixed release safety.
#include "util/pool.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/pooled_containers.hpp"

namespace rrnet::util {
namespace {

TEST(PayloadPool, ReusesChunksAfterRelease) {
  PayloadPool pool(/*capacity=*/4);
  void* first = pool.allocate(32);
  EXPECT_EQ(pool.stats().pool_allocs, 1u);
  PayloadPool::release(first);
  EXPECT_EQ(pool.stats().releases, 1u);
  // Free-list is LIFO: the released chunk comes straight back.
  void* second = pool.allocate(32);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pool.stats().pool_allocs, 2u);
  EXPECT_EQ(pool.stats().heap_allocs, 0u);
  PayloadPool::release(second);
}

TEST(PayloadPool, ExhaustionFallsBackToHeapNeverFails) {
  PayloadPool pool(/*capacity=*/2);
  std::vector<void*> chunks;
  for (int i = 0; i < 5; ++i) chunks.push_back(pool.allocate(16));
  EXPECT_EQ(pool.stats().pool_allocs, 2u);
  EXPECT_EQ(pool.stats().heap_allocs, 3u);
  for (void* p : chunks) PayloadPool::release(p);
  // Only pool-owned chunks return to the free list (heap chunks are freed),
  // and pool release counting reflects that.
  EXPECT_EQ(pool.stats().releases, 2u);
  EXPECT_EQ(pool.free_count(), 2u);
  // After drain-and-release, pooled service resumes.
  void* again = pool.allocate(16);
  EXPECT_EQ(pool.stats().pool_allocs, 3u);
  PayloadPool::release(again);
}

TEST(PayloadPool, MismatchedSizeTakesHeapPath) {
  PayloadPool pool(/*capacity=*/4);
  void* sized = pool.allocate(24);  // fixes chunk size at 24
  void* other = pool.allocate(48);  // different size -> heap fallback
  EXPECT_EQ(pool.stats().pool_allocs, 1u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  PayloadPool::release(sized);
  PayloadPool::release(other);
}

TEST(PoolAllocated, ObjectsRecycleThroughSizeClassPools) {
  struct Obj : PoolAllocated {
    std::uint64_t data[5] = {};
  };  // 40 bytes -> the 64-byte size class
  const auto& stats = sized_pool(sizeof(Obj)).stats();
  delete new Obj;  // warm the class (first call may carve the arena)
  const std::uint64_t pool_before = stats.pool_allocs;
  const std::uint64_t heap_before = stats.heap_allocs;
  for (int i = 0; i < 100; ++i) delete new Obj;
  EXPECT_EQ(stats.pool_allocs, pool_before + 100);
  EXPECT_EQ(stats.heap_allocs, heap_before);
}

TEST(PoolAllocated, OversizedObjectsBypassThePoolsSafely) {
  struct Big : PoolAllocated {
    char blob[2048] = {};  // above kSizeClassMax -> headered heap chunk
  };
  Big* big = new Big;
  big->blob[2047] = 'x';
  delete big;  // release dispatches on the null-owner header
}

// These two tests spell out libstdc++'s internal node types to reach the
// per-node-type pool counters; they pin the property the pooled aliases
// exist for (node recycling through the pool) on the toolchain this repo
// builds with.
TEST(PooledContainers, MapEraseInsertIsAllocationFreeInSteadyState) {
  // Container node types get their own per-thread pools; once warm, an
  // erase/insert cycle is a free-list round trip, not a heap one.
  using Map = PooledUnorderedMap<std::uint64_t, std::uint64_t>;
  using Node = std::__detail::_Hash_node<
      std::pair<const std::uint64_t, std::uint64_t>, false>;
  const auto& stats = payload_pool<NodePoolAllocator<Node>>().stats();
  Map map;
  for (std::uint64_t i = 0; i < 64; ++i) map.emplace(i, ~i);
  const std::uint64_t heap_before = stats.heap_allocs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    map.erase(i % 64);
    map.emplace(i % 64, i);
  }
  EXPECT_EQ(stats.heap_allocs, heap_before);
  EXPECT_GE(stats.pool_allocs, 1000u);
  EXPECT_EQ(map.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_TRUE(map.contains(i));
}

TEST(PooledContainers, ListAndSetUseDistinctPoolsForSameElementType) {
  // A list node and a hash-set node of the same element type have different
  // sizes; keying pools by the rebound node type keeps both on the pool
  // path instead of forcing one into the heap fallback.
  PooledList<std::uint64_t> list;
  PooledUnorderedSet<std::uint64_t> set;
  using ListNode = std::_List_node<std::uint64_t>;
  using SetNode = std::__detail::_Hash_node<std::uint64_t, false>;
  const auto& list_stats = payload_pool<NodePoolAllocator<ListNode>>().stats();
  const auto& set_stats = payload_pool<NodePoolAllocator<SetNode>>().stats();
  const std::uint64_t list_pool_before = list_stats.pool_allocs;
  const std::uint64_t set_pool_before = set_stats.pool_allocs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    list.push_back(i);
    set.insert(i);
  }
  EXPECT_EQ(list_stats.pool_allocs, list_pool_before + 100);
  EXPECT_EQ(set_stats.pool_allocs, set_pool_before + 100);
  EXPECT_EQ(list.size(), 100u);
  EXPECT_EQ(set.size(), 100u);
}

}  // namespace
}  // namespace rrnet::util

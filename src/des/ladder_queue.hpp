// Ladder queue: an O(1)-amortized priority queue for event scheduling.
//
// The classic heap pays O(log n) sift work per operation; with the event
// path otherwise allocation-free that sifting is the dominant cost of
// des::Scheduler at flood scale (bench: schedule_execute). The ladder
// queue (Tang, Goh & Thng, ACM TOMACS 2005) replaces most of that work
// with O(1) bucket appends, spending comparisons only on the handful of
// imminent events:
//
//   * `overflow_` ("top" rung): an unsorted vector receiving every push
//     with time >= `top_start_` — one append, no comparisons. Running
//     min/max are tracked for later bucketing.
//   * `rungs_`: a stack of bucket arrays. Each rung spans part of the
//     timeline split into kNumBuckets equal-width buckets; pushes that
//     fall below `top_start_` append to the right bucket of the
//     outermost rung that still covers their time. When a drained bucket
//     is too dense, a child rung re-buckets it at finer width (bounded
//     by kMaxRungs), which is what keeps skewed distributions O(1).
//   * `bottom_`: a small QuadHeap holding the imminent events in exact
//     (time, sequence) order. Buckets are drained into it one at a time,
//     so its depth tracks the bucket occupancy (~kSpawnThreshold), not
//     the total pending-event count.
//
// Determinism: pop order is bit-identical to a QuadHeap driven by the
// same `Before`. Bucket routing uses a single monotone index function
// (floor of an affine map, clamped), so an entry with a smaller time can
// never land in a later bucket than one with a larger time, buckets
// drain in index order, and the bottom heap applies `Before` exactly —
// including its sequence tie-break, which preserves the FIFO-among-equal-
// times discipline shared with mac::TxQueue. FP fuzz in the division can
// only shift an entry across a bucket boundary, never reorder it,
// because routing and draining use the same index function. Region
// boundaries that must be exact (`top_start_`) are compared directly,
// never re-derived arithmetically.
//
// Steady state is allocation-free like the rest of the engine: retired
// rungs park in a spare pool with their bucket capacity intact, buckets
// are cleared rather than moved from, and `overflow_` keeps its
// capacity across rebuilds. The spare pool is thread-local and shared by
// every LadderQueue of the same entry type, so short-lived schedulers
// (one per scenario replication) inherit warmed-up rung capacity instead
// of re-growing bucket vectors — the same instance-transcending reuse
// the payload pools give packets. Like those pools, a queue must not
// migrate across threads (replication workers are shared-nothing).
//
// `TimeOf(item)` returns the item's timestamp; `Before(a, b)` is the
// strict total order (time first, then a monotone sequence for ties).
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "des/quad_heap.hpp"
#include "des/time.hpp"
#include "util/contracts.hpp"

namespace rrnet::des {

template <typename T, typename TimeOf, typename Before>
class LadderQueue {
 public:
  LadderQueue() = default;
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  ~LadderQueue() {
    // Park every rung (live or spare) in the thread-local pool so the
    // next queue on this thread starts with warmed bucket capacity.
    while (!rungs_.empty()) retire_innermost_rung();
    auto& pool = rung_pool();
    for (Rung& r : spare_rungs_) pool.push_back(std::move(r));
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Deepest the queue has ever been (pending-event pressure gauge,
  /// mirroring QuadHeap::high_water()).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

  void clear() noexcept {
    bottom_.clear();
    while (!rungs_.empty()) retire_innermost_rung();
    overflow_.clear();
    top_start_ = -std::numeric_limits<Time>::infinity();
    overflow_min_ = std::numeric_limits<Time>::infinity();
    overflow_max_ = -std::numeric_limits<Time>::infinity();
    size_ = 0;
  }

  void push(T item) {
    const Time t = time_of_(item);
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
    if (t >= top_start_) {
      if (t < overflow_min_) overflow_min_ = t;
      if (t > overflow_max_) overflow_max_ = t;
      overflow_.push_back(std::move(item));
      return;
    }
    // Outermost rung first: inner rungs refine the drained region of
    // their parent, so the first rung whose undrained span covers t wins.
    for (Rung& r : rungs_) {
      const std::size_t idx = bucket_index(r, t);
      if (idx >= r.cursor) {
        r.buckets[idx].push_back(std::move(item));
        ++r.count;
        return;
      }
    }
    bottom_.push(std::move(item));
  }

  /// Earliest element; precondition: !empty().
  [[nodiscard]] const T& top() {
    const bool ok = settle();
    RRNET_ASSERT(ok);
    return bottom_.top();
  }

  /// Remove the earliest element; precondition: !empty().
  void pop() {
    const bool ok = settle();
    RRNET_ASSERT(ok);
    bottom_.pop();
    --size_;
  }

  /// Remove and return the earliest element; precondition: !empty().
  T pop_top() {
    const bool ok = settle();
    RRNET_ASSERT(ok);
    --size_;
    return bottom_.pop_top();
  }

 private:
  // 128 buckets x spawn threshold 48 bounds the bottom heap to ~48
  // entries regardless of pending-set size; kMaxRungs bounds refinement
  // depth (128^6 buckets of resolution) before falling back to the heap.
  static constexpr std::size_t kNumBuckets = 128;
  static constexpr std::size_t kSpawnThreshold = 48;
  static constexpr std::size_t kMaxRungs = 6;

  struct Rung {
    Time start = 0.0;
    Time width = 1.0;
    std::size_t cursor = 0;  ///< first undrained bucket index
    std::size_t count = 0;   ///< entries remaining across buckets
    std::vector<std::vector<T>> buckets;
  };

  /// Monotone-nondecreasing map from time to bucket index, clamped to the
  /// rung. Entries beyond the nominal span pile into the edge buckets;
  /// that keeps ordering exact (clamping is monotone) and lets a child
  /// rung absorb them on drain.
  [[nodiscard]] std::size_t bucket_index(const Rung& r, Time t) const noexcept {
    if (t <= r.start) return 0;
    const double di = (t - r.start) / r.width;
    if (di >= static_cast<double>(kNumBuckets - 1)) return kNumBuckets - 1;
    return static_cast<std::size_t>(di);
  }

  /// Thread-local spare-rung pool shared by every queue of this entry
  /// type; parked rungs keep their bucket vectors' capacity.
  static std::vector<Rung>& rung_pool() {
    static thread_local std::vector<Rung> pool;
    return pool;
  }

  Rung acquire_rung(Time start, Time width, std::size_t count) {
    Rung r;
    if (!spare_rungs_.empty()) {
      r = std::move(spare_rungs_.back());
      spare_rungs_.pop_back();
    } else if (auto& pool = rung_pool(); !pool.empty()) {
      r = std::move(pool.back());
      pool.pop_back();
    } else {
      r.buckets.resize(kNumBuckets);
    }
    r.start = start;
    r.width = width;
    r.cursor = 0;
    r.count = count;
    return r;
  }

  void retire_innermost_rung() noexcept {
    Rung& r = rungs_.back();
    for (auto& b : r.buckets) b.clear();  // keep capacity for reuse
    r.count = 0;
    spare_rungs_.push_back(std::move(r));
    rungs_.pop_back();
  }

  /// Distribute `entries` into a fresh innermost rung spanning [mn, mx].
  void spawn_rung(std::vector<T>& entries, Time mn, Time mx) {
    const Time width = (mx - mn) / static_cast<Time>(kNumBuckets);
    Rung r = acquire_rung(mn, width, entries.size());
    for (T& e : entries) {
      r.buckets[bucket_index(r, time_of_(e))].push_back(std::move(e));
    }
    entries.clear();
    rungs_.push_back(std::move(r));
  }

  /// Ensure `bottom_` holds the earliest pending entries (or report the
  /// queue empty). Feeds the heap one bucket at a time, refining dense
  /// buckets into child rungs and rebuilding from overflow last.
  bool settle() {
    while (bottom_.empty()) {
      if (!rungs_.empty()) {
        Rung& r = rungs_.back();
        if (r.count == 0) {
          retire_innermost_rung();
          continue;
        }
        while (r.buckets[r.cursor].empty()) ++r.cursor;
        std::vector<T>& bucket = r.buckets[r.cursor];
        r.count -= bucket.size();
        ++r.cursor;
        if (bucket.size() > kSpawnThreshold && rungs_.size() < kMaxRungs) {
          Time mn = std::numeric_limits<Time>::infinity();
          Time mx = -std::numeric_limits<Time>::infinity();
          for (const T& e : bucket) {
            const Time t = time_of_(e);
            if (t < mn) mn = t;
            if (t > mx) mx = t;
          }
          if (mx > mn) {  // refinable: spread left to split
            spawn_rung(bucket, mn, mx);  // invalidates r / bucket
            continue;
          }
        }
        for (T& e : bucket) bottom_.push(std::move(e));
        bucket.clear();
        continue;
      }
      if (overflow_.empty()) return false;
      // Re-bucket the overflow region. Everything pushed from here on
      // with t >= the batch max belongs after this whole batch, so that
      // max becomes the new overflow threshold (compared exactly; ties
      // pop in sequence order via the bottom heap's Before).
      top_start_ = overflow_max_;
      if (overflow_.size() > kSpawnThreshold && overflow_max_ > overflow_min_) {
        spawn_rung(overflow_, overflow_min_, overflow_max_);
      } else {
        for (T& e : overflow_) bottom_.push(std::move(e));
        overflow_.clear();
      }
      overflow_min_ = std::numeric_limits<Time>::infinity();
      overflow_max_ = -std::numeric_limits<Time>::infinity();
    }
    return true;
  }

  QuadHeap<T, Before> bottom_;
  std::vector<Rung> rungs_;        ///< outermost first, innermost last
  std::vector<Rung> spare_rungs_;  ///< retired rungs, capacity retained
  std::vector<T> overflow_;
  Time top_start_ = -std::numeric_limits<Time>::infinity();
  Time overflow_min_ = std::numeric_limits<Time>::infinity();
  Time overflow_max_ = -std::numeric_limits<Time>::infinity();
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
  [[no_unique_address]] TimeOf time_of_{};
};

}  // namespace rrnet::des

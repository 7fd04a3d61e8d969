// Discrete-event scheduler with O(1)-amortized insertion and cancellation.
//
// Events are callbacks stored in generation-stamped slots; a priority queue
// holds (time, sequence, slot, generation) entries. Cancellation bumps the
// slot generation, so stale queue entries are skipped lazily at pop time.
// Ties in time are executed in insertion order, which makes simulations
// deterministic even when two events share a timestamp.
//
// The queue is a des::LadderQueue, O(1) amortized: pushes append to time
// buckets, and comparisons are spent only on the few imminent events. Its
// pop order is the same strict (time, sequence) order a des::QuadHeap
// gives, which tests/ladder_queue_test.cpp cross-checks.
//
// Callbacks are des::InlineCallback, not std::function: captures live inside
// the pooled slot (zero heap allocations per event in steady state) and a
// capture larger than the inline budget is a compile-time error.
//
// Inline hand-off: a handler about to re-arm itself at `t` may instead call
// run_next_inline(t) and, on true, carry on as that next event without a
// queue round trip. It is granted only while run()/run_until() drives and
// only when the event would have been the very next one popped, so the
// executed sequence (and executed_count()) is the same either way. Its
// counters (inline_count(), heap_high_water()) are taken before the run
// loop decides, so they too are the same whether the run is driven by one
// run(), by run_until() slices or by bare step() calls.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "des/inline_callback.hpp"
#include "des/ladder_queue.hpp"
#include "des/time.hpp"
#include "util/contracts.hpp"

namespace rrnet::des {

/// Opaque handle to a scheduled event; value-semantic and cheap to copy.
struct EventId {
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t generation = 0;

  static constexpr std::uint32_t kInvalidSlot = ~0u;
  [[nodiscard]] bool valid() const noexcept { return slot != kInvalidSlot; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

class Scheduler {
 public:
  using Callback = InlineCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time (0 before any event runs).
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule cb at absolute time t; requires t >= now(). The template
  /// overload constructs the callable directly in its event slot (no
  /// InlineCallback temporary, no indirect relocate — this is the hot
  /// path, run once per scheduled event); the Callback overload serves
  /// callers that already hold a built InlineCallback.
  template <typename F,
            typename = decltype(std::declval<Callback&>().emplace(
                std::declval<F>()))>
  EventId schedule_at(Time t, F&& f) {
    RRNET_EXPECTS(t >= now_);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.callback.emplace(std::forward<F>(f));
    s.live = true;
    ++live_;
    queue_.push(HeapEntry{t, next_sequence_++, slot, s.generation});
    return EventId{slot, s.generation};
  }
  EventId schedule_at(Time t, Callback cb);
  /// Schedule cb after a nonnegative delay.
  template <typename F,
            typename = decltype(std::declval<Callback&>().emplace(
                std::declval<F>()))>
  EventId schedule_in(Time delay, F&& f) {
    RRNET_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(f));
  }
  EventId schedule_in(Time delay, Callback cb);

  /// Cancel a pending event. Returns true iff the event was still pending.
  bool cancel(EventId id) noexcept;
  /// True iff the event is scheduled and not yet executed or cancelled.
  [[nodiscard]] bool pending(EventId id) const noexcept;

  /// Run until the queue drains.
  void run();
  /// Run events with time <= t_end, then advance the clock to t_end.
  void run_until(Time t_end);
  /// Bounded slice of run_until: execute at most `max_events` events with
  /// time <= t_end, inline hand-offs included. Advances the clock to t_end
  /// (and returns true) only once every such event has run, so repeated
  /// calls execute exactly the sequence the unbounded overload would. The
  /// run-health monitor's serial sampling loop drives this between
  /// checkpoints.
  bool run_until(Time t_end, std::uint64_t max_events);
  /// Execute at most one event; returns false when the queue is empty.
  /// Handlers run by a bare step() are never granted an inline hand-off.
  bool step();

  /// Inline hand-off, for a handler about to return: instead of scheduling
  /// its successor at `t`, ask to run it now, in the same call. Granted
  /// (clock set to t, one event counted as executed) only if every live
  /// pending event is strictly later than t (an event pending at exactly t
  /// keeps its FIFO turn), and run() or run_until() is driving with t
  /// within its horizon and slice budget. On false the caller schedules as
  /// usual. Requires t >= now().
  bool run_next_inline(Time t) {
    RRNET_EXPECTS(t >= now_);
    if (settle_top() && queue_.top().time <= t) return false;
    // The successor is next either way. Count it, and the queue depth its
    // push would reach, before the run loop decides: a refusal below only
    // moves it through the queue, so the counts do not depend on the loop.
    ++inlined_;
    if (queue_.size() >= inline_high_water_) {
      inline_high_water_ = queue_.size() + 1;
    }
    if (t > horizon_ || executed_ >= budget_end_) return false;
    now_ = t;
    ++executed_;
    return true;
  }

  [[nodiscard]] std::size_t pending_count() const noexcept { return live_; }
  /// Events executed, inline hand-offs included.
  [[nodiscard]] std::uint64_t executed_count() const noexcept {
    return executed_;
  }
  /// Hand-off requests that found nothing else due first. run() grants
  /// them all, so there this is the number of events run inline; where a
  /// run_until() horizon, a spent slice budget or a bare step() refuses
  /// one, that event goes through the queue and still counts.
  [[nodiscard]] std::uint64_t inline_count() const noexcept {
    return inlined_;
  }
  /// Deepest the event queue has ever been (queue-pressure gauge), counting
  /// each hand-off as the push it replaced.
  [[nodiscard]] std::size_t heap_high_water() const noexcept {
    const std::size_t queued = queue_.high_water();
    return queued > inline_high_water_ ? queued : inline_high_water_;
  }

 private:
  struct HeapEntry {
    Time time;
    std::uint64_t sequence;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Earlier {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.sequence < b.sequence;  // FIFO among equal times
    }
  };
  struct EntryTime {
    Time operator()(const HeapEntry& e) const noexcept { return e.time; }
  };
  struct Slot {
    Callback callback;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// Pop entries until the top is live; returns false if the queue empties.
  bool settle_top() noexcept;
  std::uint32_t acquire_slot();

  /// Opens run_next_inline() for the scope of one run()/run_until() call;
  /// the destructor closes it again, also when a handler throws.
  class Driving {
   public:
    Driving(Scheduler& s, Time horizon, std::uint64_t budget_end) noexcept
        : s_(s) {
      s_.horizon_ = horizon;
      s_.budget_end_ = budget_end;
    }
    ~Driving() {
      s_.horizon_ = kClosed;
      s_.budget_end_ = 0;
    }
    Driving(const Driving&) = delete;
    Driving& operator=(const Driving&) = delete;

   private:
    Scheduler& s_;
  };
  static constexpr Time kClosed = -std::numeric_limits<Time>::infinity();

  LadderQueue<HeapEntry, EntryTime, Earlier> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t inlined_ = 0;
  std::size_t inline_high_water_ = 0;
  std::size_t live_ = 0;
  // Inline hand-offs are granted for t <= horizon_ while executed_ <
  // budget_end_; both are closed unless a Driving scope is open.
  Time horizon_ = kClosed;
  std::uint64_t budget_end_ = 0;
};

}  // namespace rrnet::des

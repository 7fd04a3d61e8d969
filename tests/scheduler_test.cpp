#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "des/timer.hpp"
#include "util/contracts.hpp"

namespace rrnet::des {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&]() { order.push_back(3); });
  sched.schedule_at(1.0, [&]() { order.push_back(1); });
  sched.schedule_at(2.0, [&]() { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  EXPECT_EQ(sched.executed_count(), 3u);
}

TEST(Scheduler, EqualTimesRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(1.0, [&, i]() { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RejectsPastAndNullCallbacks) {
  Scheduler sched;
  sched.schedule_at(5.0, []() {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(4.0, []() {}), rrnet::ContractViolation);
  EXPECT_THROW(sched.schedule_in(-1.0, []() {}), rrnet::ContractViolation);
  EXPECT_THROW(sched.schedule_at(6.0, nullptr), rrnet::ContractViolation);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  const EventId id = sched.schedule_at(1.0, [&]() { ran = true; });
  EXPECT_TRUE(sched.pending(id));
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.pending(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
  sched.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched.executed_count(), 0u);
}

TEST(Scheduler, SlotReuseDoesNotResurrectOldIds) {
  Scheduler sched;
  int fired = 0;
  const EventId first = sched.schedule_at(1.0, [&]() { ++fired; });
  sched.cancel(first);
  // New event likely reuses the slot; the old id must stay dead.
  const EventId second = sched.schedule_at(2.0, [&]() { ++fired; });
  EXPECT_FALSE(sched.pending(first));
  EXPECT_TRUE(sched.pending(second));
  EXPECT_FALSE(sched.cancel(first));
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, ScheduleDuringCallback) {
  Scheduler sched;
  std::vector<std::string> log;
  sched.schedule_at(1.0, [&]() {
    log.push_back("a");
    sched.schedule_in(0.5, [&]() { log.push_back("b"); });
  });
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(sched.now(), 1.5);
}

TEST(Scheduler, CancelDuringCallback) {
  Scheduler sched;
  bool second_ran = false;
  EventId second{};
  second = sched.schedule_at(2.0, [&]() { second_ran = true; });
  sched.schedule_at(1.0, [&]() { sched.cancel(second); });
  sched.run();
  EXPECT_FALSE(second_ran);
}

TEST(Scheduler, RunUntilAdvancesClockToHorizon) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1.0, [&]() { ++fired; });
  sched.schedule_at(5.0, [&]() { ++fired; });
  sched.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);
}

TEST(Scheduler, RunUntilIncludesBoundary) {
  Scheduler sched;
  bool ran = false;
  sched.schedule_at(3.0, [&]() { ran = true; });
  sched.run_until(3.0);
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1.0, [&]() { ++fired; });
  sched.schedule_at(2.0, [&]() { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, []() {});
  sched.schedule_at(2.0, []() {});
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Scheduler, ManyInterleavedScheduleCancels) {
  Scheduler sched;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        sched.schedule_at(1.0 + 0.001 * i, [&]() { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) sched.cancel(ids[i]);
  sched.run();
  EXPECT_EQ(fired, 500);
}

// Same-timestamp FIFO under cancel/reschedule churn: cancelled events must
// not disturb the insertion order of survivors at the same timestamp.
TEST(Scheduler, SameTimestampFifoUnderChurn) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  constexpr Time kT = 1.0;
  int expected_rank = 0;
  for (int round = 0; round < 50; ++round) {
    // Two doomed events bracketing each survivor, cancelled below.
    cancelled.push_back(sched.schedule_at(kT, [&]() { ADD_FAILURE(); }));
    const int rank = expected_rank++;
    sched.schedule_at(kT, [&order, rank]() { order.push_back(rank); });
    cancelled.push_back(sched.schedule_at(kT, [&]() { ADD_FAILURE(); }));
  }
  for (EventId id : cancelled) EXPECT_TRUE(sched.cancel(id));
  // Reschedule more survivors at the same instant after the churn.
  for (int round = 0; round < 50; ++round) {
    const int rank = expected_rank++;
    sched.schedule_at(kT, [&order, rank]() { order.push_back(rank); });
  }
  sched.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

// --- Inline hand-off (run_next_inline) -----------------------------------

// A self-re-arming chain shaped like phy::Channel's walker: each link logs
// its time; each but the last (if `litter` > 0) leaves a no-op event that
// much later, then runs the next link inline if the scheduler grants the
// hand-off (counted in `*granted`), or schedules it.
struct Chain {
  Scheduler* sched;
  std::vector<Time>* log;
  int remaining;
  Time gap;
  Time litter = 0.0;
  int* granted = nullptr;
  void operator()() {
    for (;;) {
      log->push_back(sched->now());
      if (--remaining == 0) return;
      if (litter > 0.0) sched->schedule_in(litter, []() {});
      const Time next = sched->now() + gap;
      if (!sched->run_next_inline(next)) {
        sched->schedule_at(next, *this);
        return;
      }
      if (granted != nullptr) ++*granted;
    }
  }
};

TEST(SchedulerInline, RefusedUnderBareStep) {
  Scheduler sched;
  bool granted = true;
  sched.schedule_at(1.0, [&]() { granted = sched.run_next_inline(2.0); });
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(granted);
  EXPECT_DOUBLE_EQ(sched.now(), 1.0);
  EXPECT_EQ(sched.executed_count(), 1u);
  // Nothing else was due first, so the request counts all the same.
  EXPECT_EQ(sched.inline_count(), 1u);
}

TEST(SchedulerInline, GrantAdvancesClockAndExecutedCount) {
  Scheduler sched;
  bool granted = false;
  Time now_after = 0.0;
  std::uint64_t executed_after = 0;
  sched.schedule_at(5.0, []() {});  // strictly later: does not block
  sched.schedule_at(1.0, [&]() {
    granted = sched.run_next_inline(2.0);
    now_after = sched.now();
    executed_after = sched.executed_count();
  });
  sched.run();
  EXPECT_TRUE(granted);
  EXPECT_DOUBLE_EQ(now_after, 2.0);
  EXPECT_EQ(executed_after, 2u);
  EXPECT_EQ(sched.executed_count(), 3u);
  EXPECT_EQ(sched.inline_count(), 1u);
}

TEST(SchedulerInline, RefusedWhenLiveEventPendingAtExactlyT) {
  Scheduler sched;
  std::vector<std::string> log;
  sched.schedule_at(2.0, [&]() { log.push_back("pending"); });
  sched.schedule_at(1.0, [&]() {
    if (sched.run_next_inline(2.0)) {
      log.push_back("inline");
      return;
    }
    sched.schedule_at(2.0, [&]() { log.push_back("successor"); });
  });
  sched.run();
  // The event already pending at t keeps its FIFO turn.
  EXPECT_EQ(log, (std::vector<std::string>{"pending", "successor"}));
  EXPECT_EQ(sched.inline_count(), 0u);
}

TEST(SchedulerInline, CancelledEarlierEntryDoesNotBlock) {
  Scheduler sched;
  sched.cancel(sched.schedule_at(1.5, []() {}));
  bool granted = false;
  sched.schedule_at(1.0, [&]() { granted = sched.run_next_inline(2.0); });
  sched.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(sched.inline_count(), 1u);
}

TEST(SchedulerInline, RunUntilGrantsUpToItsHorizonOnly) {
  Scheduler sched;
  std::vector<Time> log;
  int granted = 0;
  // Links at 1, 2, 3 and 4.
  sched.schedule_at(1.0, Chain{&sched, &log, 4, 1.0, 0.0, &granted});
  sched.run_until(2.0);
  // 2.0 == t_end runs inline; 3.0 is beyond it and was scheduled instead.
  EXPECT_EQ(log, (std::vector<Time>{1.0, 2.0}));
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(sched.executed_count(), 2u);
  EXPECT_EQ(sched.pending_count(), 1u);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  sched.run();
  EXPECT_EQ(log, (std::vector<Time>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(sched.inline_count(), 3u);  // the refused request counts too
  EXPECT_EQ(sched.executed_count(), 4u);
}

TEST(SchedulerInline, HandlerThrowingOutOfRunClosesHandOff) {
  Scheduler sched;
  sched.schedule_at(1.0, []() { throw std::runtime_error("handler failed"); });
  EXPECT_THROW(sched.run(), std::runtime_error);
  bool granted = true;
  sched.schedule_at(2.0, [&]() { granted = sched.run_next_inline(3.0); });
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(granted);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.executed_count(), 2u);
}

TEST(SchedulerInline, BoundedSliceCountsInlineEventsAgainstItsBudget) {
  // One 100-link chain that run() would finish in a single step(): slices
  // of 7 must stop after 7 events, not after 7 step() calls.
  Scheduler sched;
  std::vector<Time> log;
  int granted = 0;
  sched.schedule_at(1.0, Chain{&sched, &log, 100, 0.5, 0.0, &granted});
  std::uint64_t slices = 0;
  while (!sched.run_until(1000.0, 7)) {
    ++slices;
    ASSERT_EQ(sched.executed_count(), 7 * slices);
    ASSERT_EQ(log.size(), 7 * slices);
  }
  EXPECT_EQ(slices, 14u);  // 100 = 14 * 7 + 2
  EXPECT_EQ(sched.executed_count(), 100u);
  EXPECT_EQ(granted, 100 - 15);  // every link but the one step() per slice
  EXPECT_EQ(sched.inline_count(), 99u);
  EXPECT_DOUBLE_EQ(sched.now(), 1000.0);
  // Same sequence as one unbounded call.
  ASSERT_EQ(log.size(), 100u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_DOUBLE_EQ(log[i], 1.0 + 0.5 * static_cast<double>(i));
  }
}

TEST(SchedulerInline, CountsDoNotDependOnTheRunLoop) {
  // Two interleaved chains, one leaving far-future events behind so that
  // the queue peaks at its last hand-off, plus a cancelled entry. One run(),
  // run_until() slices that cut the chains, budget slices and bare step()s
  // must execute the same sequence and report the same counts.
  struct Outcome {
    std::vector<Time> log;
    int granted = 0;
    std::uint64_t executed = 0;
    std::uint64_t inlined = 0;
    std::size_t high_water = 0;
  };
  const auto drive = [](int loop) {
    Scheduler sched;
    Outcome o;
    sched.schedule_at(1.0, Chain{&sched, &o.log, 20, 1.0, 1000.0, &o.granted});
    sched.schedule_at(1.25, Chain{&sched, &o.log, 5, 2.0, 0.0, &o.granted});
    sched.cancel(sched.schedule_at(3.5, []() {}));
    switch (loop) {
      case 0:
        sched.run();
        break;
      case 1:
        for (Time t = 0.5; t < 1100.0; t += 0.75) sched.run_until(t);
        break;
      case 2:
        while (!sched.run_until(1100.0, 3)) {
        }
        break;
      default:
        while (sched.step()) {
        }
    }
    o.executed = sched.executed_count();
    o.inlined = sched.inline_count();
    o.high_water = sched.heap_high_water();
    return o;
  };
  const Outcome reference = drive(0);
  EXPECT_EQ(reference.executed, 20u + 5u + 19u);
  EXPECT_GT(reference.inlined, 0u);
  EXPECT_LT(reference.inlined, 19u + 4u);  // some found the other chain due
  EXPECT_EQ(reference.granted, static_cast<int>(reference.inlined));
  for (int loop = 1; loop < 4; ++loop) {
    SCOPED_TRACE(loop);
    const Outcome o = drive(loop);
    EXPECT_LT(o.granted, reference.granted);  // 0 under bare step()s
    EXPECT_EQ(o.log, reference.log);
    EXPECT_EQ(o.executed, reference.executed);
    EXPECT_EQ(o.inlined, reference.inlined);
    EXPECT_EQ(o.high_water, reference.high_water);
  }
}

TEST(Timer, FiresAfterDelay) {
  Scheduler sched;
  Timer timer(sched);
  bool fired = false;
  timer.start(2.0, [&]() { fired = true; });
  EXPECT_TRUE(timer.active());
  EXPECT_DOUBLE_EQ(timer.expiry(), 2.0);
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(timer.active());
}

TEST(Timer, CancelStopsFiring) {
  Scheduler sched;
  Timer timer(sched);
  bool fired = false;
  timer.start(1.0, [&]() { fired = true; });
  EXPECT_TRUE(timer.cancel());
  EXPECT_FALSE(timer.cancel());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, RestartReplacesPending) {
  Scheduler sched;
  Timer timer(sched);
  int which = 0;
  timer.start(1.0, [&]() { which = 1; });
  timer.start(2.0, [&]() { which = 2; });
  sched.run();
  EXPECT_EQ(which, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.executed_count(), 1u);
}

TEST(Timer, DestructionCancels) {
  Scheduler sched;
  bool fired = false;
  {
    Timer timer(sched);
    timer.start(1.0, [&]() { fired = true; });
  }
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, MoveTransfersOwnership) {
  Scheduler sched;
  bool fired = false;
  Timer a(sched);
  a.start(1.0, [&]() { fired = true; });
  Timer b = std::move(a);
  EXPECT_TRUE(b.active());
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Timer, RearmFromInsideCallback) {
  Scheduler sched;
  Timer timer(sched);
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) timer.start(1.0, tick);
  };
  timer.start(1.0, tick);
  sched.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
}

// Property: an arbitrary interleaving of schedules executes in
// nondecreasing time order.
class SchedulerOrderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerOrderTest, TimesNondecreasing) {
  Scheduler sched;
  std::uint64_t state = GetParam();
  std::vector<Time> executed;
  for (int i = 0; i < 200; ++i) {
    const Time t = static_cast<double>(splitmix64(state) % 1000) / 100.0;
    sched.schedule_at(t, [&, t]() {
      executed.push_back(t);
      // Occasionally chain another event.
      if (executed.size() % 7 == 0) {
        sched.schedule_in(0.01, [&]() { executed.push_back(sched.now()); });
      }
    });
  }
  sched.run();
  for (std::size_t i = 1; i < executed.size(); ++i) {
    EXPECT_LE(executed[i - 1], executed[i] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOrderTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 999u));

// Property: among events sharing a timestamp, execution order equals
// insertion order (FIFO) — even under heavy cancel/reschedule churn, which
// recycles slots and generations aggressively. The captures here are sized
// like the channel hot path to exercise InlineCallback's inline storage.
class SchedulerFifoChurnTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedulerFifoChurnTest, SameTimestampFifoSurvivesChurn) {
  Scheduler sched;
  std::uint64_t state = GetParam();
  struct Record {
    Time t;
    int serial;
  };
  std::vector<Record> executed;
  struct Pending {
    EventId id;
    bool cancelled = false;
  };
  std::vector<Pending> pending;
  int serial = 0;
  // Events land on a coarse grid of 8 timestamps so ties are common.
  auto schedule_one = [&]() {
    const Time t = 1.0 + static_cast<double>(splitmix64(state) % 8);
    const int s = serial++;
    double pad[4] = {t, 0.0, 0.0, 0.0};  // inflate capture toward the budget
    pending.push_back({sched.schedule_at(t, [&executed, t, s, pad]() {
                         executed.push_back({t + 0.0 * pad[0], s});
                       })});
  };
  for (int round = 0; round < 120; ++round) {
    schedule_one();
    schedule_one();
    schedule_one();
    // Cancel a pseudo-random pending event...
    const std::size_t victim = splitmix64(state) % pending.size();
    if (!pending[victim].cancelled && sched.cancel(pending[victim].id)) {
      pending[victim].cancelled = true;
      // ...and replace it with a later-inserted event (fresh serial).
      schedule_one();
    }
  }
  sched.run();
  std::size_t survivors = 0;
  for (const Pending& p : pending) {
    if (!p.cancelled) ++survivors;
  }
  ASSERT_EQ(executed.size(), survivors);
  for (std::size_t i = 1; i < executed.size(); ++i) {
    const Record& a = executed[i - 1];
    const Record& b = executed[i];
    ASSERT_LE(a.t, b.t);
    if (a.t == b.t) {
      EXPECT_LT(a.serial, b.serial)
          << "FIFO violated at t=" << a.t << " position " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFifoChurnTest,
                         ::testing::Values(7u, 1234u, 0xDEADBEEFu));

TEST(InlineCallback, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  InlineCallback a([&hits]() { ++hits; });
  EXPECT_TRUE(static_cast<bool>(a));
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  b = nullptr;
  EXPECT_TRUE(b == nullptr);
}

TEST(InlineCallback, DestroysCaptureOnResetAndCancel) {
  auto token = std::make_shared<int>(42);
  {
    InlineCallback cb([token]() {});
    EXPECT_EQ(token.use_count(), 2);
    cb.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  // Cancelling a scheduled event must release its capture immediately, not
  // at slot-reuse time: protocol code relies on timers dropping references.
  Scheduler sched;
  const EventId id = sched.schedule_at(1.0, [token]() {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, CapturesUpToCapacityInline) {
  // A capture exactly at the budget must be storable (compile-time check);
  // anything larger is a static_assert at the schedule site.
  struct Payload {
    std::byte bytes[InlineCallback::kCapacity - sizeof(void*)];
  };
  static_assert(sizeof(Payload) + sizeof(void*) <= InlineCallback::kCapacity);
  int hits = 0;
  Payload p{};
  int* hp = &hits;
  InlineCallback cb([p, hp]() {
    (void)p;
    ++*hp;
  });
  cb();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace rrnet::des

#include "des/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "util/contracts.hpp"

#ifdef RRNET_TRACE
#include <chrono>
#endif

namespace rrnet::des {

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventId Scheduler::schedule_at(Time t, Callback cb) {
  RRNET_EXPECTS(t >= now_);
  RRNET_EXPECTS(cb != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.callback = std::move(cb);
  s.live = true;
  ++live_;
  queue_.push(HeapEntry{t, next_sequence_++, slot, s.generation});
  return EventId{slot, s.generation};
}

EventId Scheduler::schedule_in(Time delay, Callback cb) {
  RRNET_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(cb));
}

bool Scheduler::cancel(EventId id) noexcept {
  if (!pending(id)) return false;
  Slot& s = slots_[id.slot];
  s.live = false;
  s.callback = nullptr;
  ++s.generation;  // invalidate the heap entry lazily
  free_slots_.push_back(id.slot);
  --live_;
  return true;
}

bool Scheduler::pending(EventId id) const noexcept {
  return id.valid() && id.slot < slots_.size() && slots_[id.slot].live &&
         slots_[id.slot].generation == id.generation;
}

bool Scheduler::settle_top() noexcept {
  while (!queue_.empty()) {
    const HeapEntry& top = queue_.top();
    const Slot& s = slots_[top.slot];
    if (s.live && s.generation == top.generation) return true;
    queue_.pop();  // cancelled; its slot was already recycled
  }
  return false;
}

bool Scheduler::step() {
  // Pop-and-skip instead of settle_top + peek + pop: cancelled entries are
  // discarded inline, and the live one is fetched with a single queue
  // operation (the ladder settles its rungs once per pop this way, not
  // once per peek).
  HeapEntry top;
  for (;;) {
    if (queue_.empty()) return false;
    top = queue_.pop_top();
    const Slot& dead = slots_[top.slot];
    if (dead.live && dead.generation == top.generation) break;
  }
  Slot& s = slots_[top.slot];
  RRNET_ASSERT(top.time >= now_);
  now_ = top.time;
  Callback cb = std::move(s.callback);  // moved-from slot is empty
  s.live = false;
  ++s.generation;
  free_slots_.push_back(top.slot);
  --live_;
  ++executed_;
#ifdef RRNET_TRACE
  // Handler spans: simulated timestamp + wall-clock cost of one callback,
  // which covers every event the callback ran by inline hand-off. Only
  // measured while a tracer is installed and enabled, so the steady-state
  // cost of a traced build without capture is one TLS load.
  if (obs::EventTracer* tracer = obs::thread_tracer();
      tracer != nullptr && tracer->enabled()) {
    const auto wall0 = std::chrono::steady_clock::now();
    cb();
    const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();
    tracer->record(obs::EventKind::HandlerSpan, top.time, obs::kNoTraceNode,
                   static_cast<std::uint64_t>(wall_ns));
    return true;
  }
#endif
  cb();
  return true;
}

void Scheduler::run() {
  const Driving driving(*this, std::numeric_limits<Time>::infinity(),
                        std::numeric_limits<std::uint64_t>::max());
  while (step()) {
  }
}

void Scheduler::run_until(Time t_end) {
  RRNET_EXPECTS(t_end >= now_);
  const Driving driving(*this, t_end,
                        std::numeric_limits<std::uint64_t>::max());
  while (settle_top() && queue_.top().time <= t_end) {
    step();
  }
  now_ = t_end;
}

bool Scheduler::run_until(Time t_end, std::uint64_t max_events) {
  RRNET_EXPECTS(t_end >= now_);
  // The budget counts executed events, hand-offs included: a handler may
  // run many events inline, and the hand-off is refused once it is spent.
  const std::uint64_t headroom =
      std::numeric_limits<std::uint64_t>::max() - executed_;
  const std::uint64_t budget_end = executed_ + std::min(max_events, headroom);
  const Driving driving(*this, t_end, budget_end);
  while (settle_top() && queue_.top().time <= t_end) {
    if (executed_ >= budget_end) return false;
    step();
  }
  now_ = t_end;
  return true;
}

}  // namespace rrnet::des

// Fixed-capacity inline callables for scheduler events and hot-path handlers.
//
// std::function's small-buffer optimisation (16 bytes in libstdc++) cannot
// hold the hot-path captures of this simulator — Channel::transmit schedules
// lambdas whose captures run up to ~60 bytes — so every scheduled event paid
// one heap allocation and one indirect free. With millions of events per
// replication that allocation dominated the engine.
//
// InlineFunction<void(Args...), Capacity> stores the callable entirely
// inside the object (Capacity bytes of aligned storage + one ops-table
// pointer), is move-only, and *statically rejects* captures that do not
// fit: exceeding the budget is a compile error at the schedule site, never
// a silent heap fallback. A deferred packet fits because it travels as a
// 24-byte net::PacketRef handle; a capture that does not fit belongs in a
// member of the object the callback points at, with only `this` captured.
//
// InlineCallback (= InlineFunction<void(), 64>) is the scheduler/timer
// callback type; core::ElectionSession::WinHandler and
// core::Arbiter::Callbacks use narrower instantiations.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace rrnet::des {

template <typename Signature, std::size_t Capacity>
class InlineFunction;  // only void(Args...) is supported

template <typename... Args, std::size_t Capacity>
class InlineFunction<void(Args...), Capacity> {
 public:
  /// Capture budget; exceeding it is a compile-time error at the call site.
  static constexpr std::size_t kCapacity = Capacity;
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFunction> &&
                                        std::is_invocable_r_v<void, Fn&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(runtime/explicit)
    static_assert(sizeof(Fn) <= kCapacity,
                  "callback capture exceeds the InlineFunction capacity; "
                  "capture a pooled/shared handle to the large state instead");
    static_assert(alignof(Fn) <= kAlignment,
                  "callback capture over-aligned for InlineFunction storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callback captures must be nothrow-move-constructible");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kOpsFor<Fn>;
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~InlineFunction() { reset(); }

  /// Destroy the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Destroy the held callable (if any) and construct `fn` directly in
  /// the inline storage. The schedule hot path uses this instead of
  /// assign-from-temporary, which costs an indirect relocate per event.
  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFunction> &&
                                        std::is_invocable_r_v<void, Fn&, Args...>>>
  void emplace(F&& fn) {
    static_assert(sizeof(Fn) <= kCapacity,
                  "callback capture exceeds the InlineFunction capacity; "
                  "capture a pooled/shared handle to the large state instead");
    static_assert(alignof(Fn) <= kAlignment,
                  "callback capture over-aligned for InlineFunction storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callback captures must be nothrow-move-constructible");
    reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kOpsFor<Fn>;
  }

  /// Invoke the held callable; precondition: non-empty.
  void operator()(Args... args) {
    ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& cb, std::nullptr_t) noexcept {
    return !static_cast<bool>(cb);
  }

 private:
  // Null relocate/destroy mark a trivially copyable / trivially destructible
  // callable. Scheduler::step relocates every event's callback out of its
  // slot before invoking (the slot vector may reallocate mid-callback), and
  // the hot-path captures are all trivial — a fixed-size memcpy plus a
  // skipped destructor replaces two indirect calls per executed event.
  struct Ops {
    void (*invoke)(void* self, Args... args);
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  /// Move the callable out of `other` into our storage; precondition:
  /// ops_ == other.ops_ != nullptr. Leaves `other` empty.
  void relocate_from(InlineFunction& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.storage_, storage_);
    } else {
      std::memcpy(storage_, other.storage_, Capacity);
    }
    other.ops_ = nullptr;
  }

  template <typename Fn>
  static void invoke_impl(void* self, Args... args) {
    (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void relocate_impl(void* src, void* dst) noexcept {
    ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
    static_cast<Fn*>(src)->~Fn();
  }
  template <typename Fn>
  static void destroy_impl(void* self) noexcept {
    static_cast<Fn*>(self)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOpsFor{
      &invoke_impl<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_impl<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_impl<Fn>};

  alignas(kAlignment) std::byte storage_[Capacity];
  const Ops* ops_ = nullptr;
};

/// The scheduler/timer event callback. The 64-byte budget is sized for the
/// largest engine-internal capture with no headroom to spare — growing a
/// hot-path capture should be a deliberate, reviewed decision.
using InlineCallback = InlineFunction<void(), 64>;

}  // namespace rrnet::des

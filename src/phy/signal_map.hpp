// Structure-of-arrays slot map for the signals concurrently on the air at
// one receiver.
//
// The flat AoS vector it replaces (24-byte ActiveSignal structs) made
// every interference query a pointer-chasing scan with a branch per
// element; in the §3 dense-flood scenarios each node evaluates tens of
// overlapping signals per reception (bench: channel_dense_signals). Here
// each field lives in its own parallel array — frame ids, powers (mW),
// end times — indexed by a stable slot:
//
//  * insert() reuses the most recently freed slot (LIFO free list) or
//    appends; erase_slot() zeroes the slot's power and parks it on the
//    free list. A freed slot therefore contributes exactly 0.0 to power
//    sums, so the fallback queries are branchless dense loops over the
//    slot range — `power_sum_excluding` compiles to a vectorizable
//    accumulate minus one element, and find() is a flat scan of a
//    contiguous u64 array. The hot paths never scan at all: callers keep
//    the slot returned by insert() and validate it with slot_matches(),
//    and interference comes from the running total minus the excluded
//    signal's own power.
//  * Slot assignment is a deterministic function of the insert/erase
//    history, so the FP arithmetic order — and with it every SINR
//    decision — is bit-identical across runs of the same seed.
//  * `total_power_mw()` (the carrier-sense input) is maintained
//    incrementally but snaps back to exactly 0.0 whenever the map
//    empties, so +=/-= rounding residue cannot accumulate across
//    millions of arrivals and leak into medium_busy() comparisons. The
//    whole slot range is truncated at the same point, keeping the dense
//    loops as short as the densest overlap actually seen.
//
// All four arrays live in ONE block carved from the thread-local
// PayloadPool: per-instance construction is a single pool pop (and a push
// at destruction), so scenario replications that churn whole Channels
// stay allocation-free in steady state. Growth past the reserved capacity
// doubles the block through the pool's heap fallback — rare and bounded
// by the densest overlap, exactly like the pooled vector it replaces.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>

#include "des/time.hpp"
#include "util/pool.hpp"

namespace rrnet::phy {

class SignalMap {
 public:
  static constexpr std::uint32_t kNoSlot = ~0u;

  SignalMap() { allocate_block(kReservedSignals); }

  ~SignalMap() {
    if (ids_ != nullptr) util::PayloadPool::release(ids_);
  }

  SignalMap(const SignalMap&) = delete;
  SignalMap& operator=(const SignalMap&) = delete;
  SignalMap(SignalMap&& other) noexcept { steal(other); }
  SignalMap& operator=(SignalMap&& other) noexcept {
    if (this != &other) {
      if (ids_ != nullptr) util::PayloadPool::release(ids_);
      steal(other);
    }
    return *this;
  }

  [[nodiscard]] bool empty() const noexcept { return active_ == 0; }
  /// Signals currently on the air.
  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }
  /// Slots in the dense range (active + parked); the length of the sums.
  [[nodiscard]] std::size_t slot_count() const noexcept { return count_; }

  /// Cumulative in-air power; exactly 0.0 whenever the map is empty.
  [[nodiscard]] double total_power_mw() const noexcept {
    return total_power_mw_;
  }

  /// Add a signal; frame ids must be unique among active signals.
  std::uint32_t insert(std::uint64_t frame_id, double power_mw,
                       des::Time end_time) {
    std::uint32_t slot;
    if (free_count_ > 0) {
      slot = free_[--free_count_];
    } else {
      if (count_ == capacity_) grow();
      slot = count_++;
    }
    ids_[slot] = frame_id;
    powers_[slot] = power_mw;
    ends_[slot] = end_time;
    ++active_;
    total_power_mw_ += power_mw;
    return slot;
  }

  /// Slot holding `frame_id`, or kNoSlot. Dense scan of the id array.
  [[nodiscard]] std::uint32_t find(std::uint64_t frame_id) const noexcept {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (ids_[i] == frame_id) return i;
    }
    return kNoSlot;
  }

  /// True iff `slot` (typically remembered from insert()) still holds
  /// `frame_id` — i.e. it survived any clear()/reset in between. O(1).
  [[nodiscard]] bool slot_matches(std::uint32_t slot,
                                  std::uint64_t frame_id) const noexcept {
    return slot < count_ && ids_[slot] == frame_id;
  }

  /// Remove the signal in `slot` (from insert()/find()); returns its power.
  double erase_slot(std::uint32_t slot) noexcept {
    const double power_mw = powers_[slot];
    powers_[slot] = 0.0;  // keeps the parked slot out of the sums
    ids_[slot] = kEmptyFrameId;
    --active_;
    if (active_ == 0) {
      reset_slots();
    } else {
      free_[free_count_++] = slot;
      total_power_mw_ -= power_mw;
      // -= of previously += values can round below zero on the last
      // few signals; the empty() reset above restores exact zero.
      if (total_power_mw_ < 0.0) total_power_mw_ = 0.0;
    }
    return power_mw;
  }

  /// Sum of active powers except `frame_id`'s (whether or not present).
  /// Branchless dense accumulate: parked slots add exactly 0.0.
  [[nodiscard]] double power_sum_excluding(
      std::uint64_t frame_id) const noexcept {
    double sum = 0.0;
    double excluded = 0.0;
    for (std::uint32_t i = 0; i < count_; ++i) {
      sum += powers_[i];
      if (ids_[i] == frame_id) excluded = powers_[i];
    }
    return sum - excluded;
  }

  /// Drop everything (radio off); capacity is retained.
  void clear() noexcept {
    active_ = 0;
    reset_slots();
  }

 private:
  static constexpr std::uint32_t kReservedSignals = 8;
  static constexpr std::uint64_t kEmptyFrameId = ~0ull;

  // One block, four arrays: [ids u64*C][powers f64*C][ends f64*C][free u32*C].
  // The 8-byte-aligned arrays come first so every base pointer is aligned.
  static constexpr std::size_t block_bytes(std::uint32_t capacity) noexcept {
    return static_cast<std::size_t>(capacity) *
           (sizeof(std::uint64_t) + sizeof(double) + sizeof(des::Time) +
            sizeof(std::uint32_t));
  }

  void allocate_block(std::uint32_t capacity) {
    // The reserved size is the pool's chunk size, so steady-state instance
    // churn is pop/push; doubled blocks take the pool's heap fallback.
    void* block =
        util::payload_pool<SignalMap>().allocate(block_bytes(capacity));
    ids_ = static_cast<std::uint64_t*>(block);
    powers_ = reinterpret_cast<double*>(ids_ + capacity);
    ends_ = reinterpret_cast<des::Time*>(powers_ + capacity);
    free_ = reinterpret_cast<std::uint32_t*>(ends_ + capacity);
    capacity_ = capacity;
  }

  void grow() {
    const SignalMap old = std::move(*this);
    allocate_block(old.capacity_ * 2);
    std::memcpy(ids_, old.ids_, old.count_ * sizeof(std::uint64_t));
    std::memcpy(powers_, old.powers_, old.count_ * sizeof(double));
    std::memcpy(ends_, old.ends_, old.count_ * sizeof(des::Time));
    std::memcpy(free_, old.free_, old.free_count_ * sizeof(std::uint32_t));
    count_ = old.count_;
    free_count_ = old.free_count_;
    active_ = old.active_;
    total_power_mw_ = old.total_power_mw_;
  }

  void reset_slots() noexcept {
    count_ = 0;
    free_count_ = 0;
    total_power_mw_ = 0.0;  // exact: no residue survives an empty map
  }

  void steal(SignalMap& other) noexcept {
    ids_ = other.ids_;
    powers_ = other.powers_;
    ends_ = other.ends_;
    free_ = other.free_;
    capacity_ = other.capacity_;
    count_ = other.count_;
    free_count_ = other.free_count_;
    active_ = other.active_;
    total_power_mw_ = other.total_power_mw_;
    other.ids_ = nullptr;
    other.powers_ = nullptr;
    other.ends_ = nullptr;
    other.free_ = nullptr;
    other.capacity_ = 0;
    other.count_ = 0;
    other.free_count_ = 0;
    other.active_ = 0;
    other.total_power_mw_ = 0.0;
  }

  std::uint64_t* ids_ = nullptr;
  double* powers_ = nullptr;
  des::Time* ends_ = nullptr;
  std::uint32_t* free_ = nullptr;
  std::uint32_t capacity_ = 0;
  std::uint32_t count_ = 0;      ///< dense slot range (active + parked)
  std::uint32_t free_count_ = 0;
  std::uint32_t active_ = 0;
  double total_power_mw_ = 0.0;
};

}  // namespace rrnet::phy

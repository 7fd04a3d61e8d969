// The queue between the network layer and the MAC.
//
// The paper (Section 3) attributes part of SSAF's delay advantage to this
// queue: "A priority queue favors those packets with a shorter backoff
// delay. Therefore, the prioritization takes effect not only among packets
// in different nodes, but also among packets in the same node."
// Lower priority value = served first; FIFO among equal priorities. A FIFO
// mode is provided for the ablation (and for protocols that don't
// prioritize, where every priority is equal anyway).
//
// Built on the same des::QuadHeap + embedded-sequence tie-break discipline
// as the scheduler: equal-priority frames dequeue strictly in arrival
// order regardless of standard-library heap implementation, so MAC service
// order is deterministic across toolchains (tested in mac_queue_test.cpp).
#pragma once

#include <cstdint>
#include <optional>

#include "des/quad_heap.hpp"
#include "mac/frame.hpp"

namespace rrnet::mac {

struct QueuedFrame {
  Frame frame;
  double priority = 0.0;  ///< e.g. the leader-election backoff delay
};

class TxQueue {
 public:
  /// `prioritized` = false degrades to plain FIFO (priority ignored).
  explicit TxQueue(std::size_t capacity, bool prioritized = true);

  /// Returns false (and counts a drop) when full.
  bool push(QueuedFrame item);
  /// Highest-priority (or oldest, in FIFO mode) frame; empty -> nullopt.
  std::optional<QueuedFrame> pop();

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  /// Deepest the queue has ever been (congestion gauge).
  [[nodiscard]] std::size_t high_water() const noexcept {
    return entries_.high_water();
  }
  [[nodiscard]] bool prioritized() const noexcept { return prioritized_; }

 private:
  struct Entry {
    QueuedFrame item;
    std::uint64_t sequence;
  };
  struct Earlier {
    bool prioritized;
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (prioritized && a.item.priority != b.item.priority) {
        return a.item.priority < b.item.priority;
      }
      return a.sequence < b.sequence;  // FIFO among equal priorities
    }
  };

  std::size_t capacity_;
  bool prioritized_;
  des::QuadHeap<Entry, Earlier> entries_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace rrnet::mac

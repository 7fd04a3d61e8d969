// End-to-end flow bookkeeping: the paper's three headline metrics.
//
//  * delivery ratio — packets received by all destinations / packets sent
//    by all sources;
//  * end-to-end delay — departure from source to arrival at destination;
//  * hop count — nodes traversed until the packet reached its destination.
//
// Memory is bounded: the uid bookkeeping (in-flight uids awaiting delivery,
// and delivered uids used to suppress duplicate deliveries) lives in two
// least-recently-observed DuplicateCache windows of `uid_window` entries
// each, not in unbounded sets. Under sustained loss a long run previously
// grew `outstanding_` by one entry per lost packet forever; now the oldest
// undelivered uids age out of the window and only the counters keep
// growing. The headline ratios are computed from the `sent_`/`delivered_`
// counters, so eviction never changes a reported metric — a delivery whose
// uid was already evicted (ultra-late, beyond `uid_window` more-recent
// sends) is simply not counted, which is the same judgement call the old
// code made for unknown uids.
#pragma once

#include <cstddef>
#include <cstdint>

#include "des/time.hpp"
#include "net/duplicate_cache.hpp"
#include "net/packet_buffer.hpp"
#include "util/stats.hpp"

namespace rrnet::app {

class FlowStats {
 public:
  /// `uid_window`: max uids tracked at once in each direction (in-flight
  /// and delivered); the memory bound for arbitrarily long runs.
  explicit FlowStats(std::size_t uid_window = 1u << 16)
      : outstanding_(uid_window), seen_uids_(uid_window) {}

  /// A source handed one packet to its protocol.
  void record_sent(std::uint64_t uid);
  /// A destination's application received a packet (call from the node's
  /// delivery handler). Duplicate uids are counted once.
  void record_delivered(const net::PacketRef& packet, des::Time now);

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] double delivery_ratio() const noexcept;
  [[nodiscard]] const util::Accumulator& delay() const noexcept {
    return delay_;
  }
  [[nodiscard]] const util::Accumulator& hops() const noexcept {
    return hops_;
  }

  /// Bookkeeping introspection (the memory-bound regression test).
  [[nodiscard]] std::size_t uid_window() const noexcept {
    return outstanding_.capacity();
  }
  [[nodiscard]] std::size_t outstanding_size() const noexcept {
    return outstanding_.size();
  }
  [[nodiscard]] std::size_t seen_size() const noexcept {
    return seen_uids_.size();
  }
  /// In-flight uids that aged out of the window undelivered (lost, or
  /// slower than `uid_window` subsequent sends).
  [[nodiscard]] std::uint64_t outstanding_evictions() const noexcept {
    return outstanding_.stats().evictions;
  }

 private:
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  net::DuplicateCache outstanding_;  ///< sent, not yet delivered (windowed)
  net::DuplicateCache seen_uids_;    ///< delivered (duplicate suppression)
  util::Accumulator delay_;
  util::Accumulator hops_;
};

}  // namespace rrnet::app

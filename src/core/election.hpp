// Local leader election sessions (§2).
//
// An election is triggered by an implicit synchronization point — here, the
// end of a packet reception, which every competing node observed at (almost)
// the same instant. Each participant arms an ElectionSession: a backoff
// timer whose duration comes from a BackoffPolicy. If the timer fires, the
// node "wins" and transmits its announcement (in SSAF/RR: relays the
// packet). If the node overhears another announcement first — or an arbiter
// acknowledgement — it cancels, conceding leadership.
//
// ElectionTable manages the many concurrent elections a node participates in
// (one per in-flight packet), keyed by the packet's flood key.
#pragma once

#include <cstdint>
#include <unordered_map>
#include "util/pooled_containers.hpp"

#include "core/backoff_policy.hpp"
#include "des/inline_callback.hpp"
#include "des/timer.hpp"
#include "obs/metrics.hpp"

namespace rrnet::core {

class ElectionTable;

enum class CancelReason : std::uint8_t {
  DuplicateHeard,  ///< another node's announcement (relay) was overheard
  ArbiterAck,      ///< the arbiter acknowledged some other relay
  Superseded,      ///< protocol-level replacement / shutdown
};

/// Per-node counters over all elections.
struct ElectionStats {
  std::uint64_t armed = 0;
  std::uint64_t won = 0;
  std::uint64_t cancelled_duplicate = 0;
  std::uint64_t cancelled_ack = 0;
  std::uint64_t cancelled_superseded = 0;
};

/// Accumulate election counters into a registry under the obs::metric
/// election.* names (protocols call this from their snapshot_metrics).
void snapshot_metrics(const ElectionStats& stats, obs::MetricRegistry& reg);

class ElectionSession {
 public:
  /// Called when this node wins; receives the backoff delay that won (the
  /// protocol passes it on as the MAC queue priority). Inline, move-only:
  /// captures above 48 bytes are a compile error. A packet fits as its
  /// 24-byte net::PacketRef handle.
  using WinHandler = des::InlineFunction<void(des::Time delay), 48>;

  explicit ElectionSession(des::Scheduler& scheduler) noexcept
      : timer_(scheduler) {}

  /// Compute the backoff from `policy` and arm the timer. Re-arming an
  /// already armed session replaces the pending candidacy.
  void arm(const BackoffPolicy& policy, const ElectionContext& context,
           des::Rng& rng, WinHandler on_win) {
    arm_impl(policy, context, rng, std::move(on_win), nullptr, 0);
  }

  /// Concede. Returns true iff a candidacy was actually pending.
  bool cancel() noexcept;

  [[nodiscard]] bool armed() const noexcept { return timer_.active(); }
  /// The backoff delay of the current/last candidacy.
  [[nodiscard]] des::Time delay() const noexcept { return delay_; }

 private:
  friend class ElectionTable;

  /// The handler lives in the session and the timer captures only `this`,
  /// so a table-managed session needs no wrapper closure (which could not
  /// fit a WinHandler inside a WinHandler's own capture budget). When
  /// `owner` is set, the win notifies it (stats + erasure) before the
  /// handler — already moved to the stack — is invoked.
  void arm_impl(const BackoffPolicy& policy, const ElectionContext& context,
                des::Rng& rng, WinHandler on_win, ElectionTable* owner,
                std::uint64_t key);

  des::Timer timer_;
  des::Time delay_ = 0.0;
  WinHandler handler_;
  ElectionTable* owner_ = nullptr;
  std::uint64_t key_ = 0;
};

class ElectionTable {
 public:
  explicit ElectionTable(des::Scheduler& scheduler) noexcept
      : scheduler_(&scheduler) {}

  /// Arm (or re-arm) the election for `key`. The session is removed from the
  /// table automatically when it wins.
  void arm(std::uint64_t key, const BackoffPolicy& policy,
           const ElectionContext& context, des::Rng& rng,
           ElectionSession::WinHandler on_win);

  /// Cancel the election for `key` (no-op if absent). Returns true iff a
  /// pending candidacy was cancelled.
  bool cancel(std::uint64_t key, CancelReason reason);

  [[nodiscard]] bool armed(std::uint64_t key) const;
  [[nodiscard]] std::size_t active_count() const noexcept {
    return sessions_.size();
  }
  [[nodiscard]] const ElectionStats& stats() const noexcept { return stats_; }

 private:
  friend class ElectionSession;

  /// Invoked by a winning session just before its handler runs; erases the
  /// session (destroying it), so the caller must not touch members after.
  void session_won(std::uint64_t key);

  des::Scheduler* scheduler_;
  util::PooledUnorderedMap<std::uint64_t, ElectionSession> sessions_;
  ElectionStats stats_;
};

}  // namespace rrnet::core

// Per-layer metric registry (observability pillar 1).
//
// Hot paths never touch the registry: every layer keeps incrementing its
// plain-uint64 stats struct (TransceiverStats, MacStats, ElectionStats, ...)
// exactly as before, and the registry is assembled once at end-of-run by
// walking those structs (net::Network::snapshot_metrics, sim::SimInstance).
// The registry therefore costs nothing per event; its job is a uniform,
// deterministically ordered namespace for counters so ScenarioResult,
// replication merging, sweep CSVs and BENCH_engine.json all speak the same
// vocabulary.
//
// Metric names are statically registered as the constants in obs::metric
// below (layer.name, lowercase, dot-separated). Two kinds:
//  * Counter — monotonic count; replications merge by summation.
//  * Gauge   — level / high-water mark; replications merge by maximum.
// Histograms are carried by obs::Histogram (log2-bucketed) inside a layer's
// stats struct and flattened into scalar registry entries (count / sum /
// approximate percentiles) via Histogram::snapshot_into.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rrnet::obs {

enum class MetricKind : std::uint8_t {
  Counter,  ///< monotonic; merged across replications by sum
  Gauge,    ///< level / high-water; merged across replications by max
};

/// One registry entry, as returned by snapshot().
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;
};

/// Deterministically ordered (by name) scalar metric store. Cheap to copy;
/// intended for end-of-run snapshots, never for per-event updates.
///
/// Storage is a name-sorted flat vector of 64-byte entries with inline
/// names, which avoids the node-and-string churn of a std::map (every
/// metric name is longer than SSO).
/// Entries are trivially copyable; a registry's only allocation is its
/// vector's growth, reserved to typical size on first insert.
class MetricRegistry {
 public:
  /// Longest accepted metric name; inline storage keeps entries at 64 B.
  static constexpr std::size_t kMaxNameLen = 54;

  /// Add `delta` to counter `name` (created at zero when absent).
  void add(std::string_view name, std::uint64_t delta);
  /// Raise gauge `name` to at least `value` (created when absent).
  void set_max(std::string_view name, std::uint64_t value);

  /// Merge `other` into this registry: counters sum, gauges max. Merging in
  /// replication-index order yields thread-count-independent results.
  void merge(const MetricRegistry& other);

  /// Value of `name`, or 0 when absent.
  [[nodiscard]] std::uint64_t value(std::string_view name) const noexcept;
  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// All entries in name order.
  [[nodiscard]] std::vector<Metric> snapshot() const;

 private:
  struct Entry {
    std::uint64_t value = 0;
    MetricKind kind = MetricKind::Counter;
    std::uint8_t len = 0;
    char name[kMaxNameLen];  ///< not NUL-terminated; `len` bytes valid
    [[nodiscard]] std::string_view view() const noexcept {
      return {name, len};
    }
  };
  static_assert(sizeof(Entry) == 64);

  [[nodiscard]] const Entry* find(std::string_view name) const noexcept;
  /// Sorted-position insert (or existing entry); sets kind only on create.
  Entry& find_or_insert(std::string_view name, MetricKind kind);

  std::vector<Entry> entries_;  ///< sorted by name
};

/// Log2-bucketed histogram of nonnegative integer samples: bucket 0 counts
/// zeros and ones, bucket k >= 1 counts samples in [2^k, 2^(k+1)). Fixed
/// storage, O(1) observe — cheap enough to live inside a per-node stats
/// struct and be bumped on moderately hot paths (e.g. MAC backoff draws).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 33;

  void observe(std::uint64_t value) noexcept {
    ++buckets_[bucket_of(value)];
    ++count_;
    sum_ += value;
  }

  void merge(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Upper bound of the bucket holding quantile `q` in [0, 1] — an
  /// approximate percentile with power-of-two resolution.
  [[nodiscard]] std::uint64_t quantile_bound(double q) const noexcept;

  /// Flatten into scalar registry entries: `prefix.count`, `prefix.sum`
  /// (counters) and `prefix.p50` / `prefix.p99` (gauges).
  void snapshot_into(MetricRegistry& registry, std::string_view prefix) const;

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept {
    std::size_t b = 0;
    while (value > 1 && b + 1 < kBuckets) {
      value >>= 1;
      ++b;
    }
    return b;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// The statically registered metric namespace. Layers instrument against
/// these constants; ad-hoc names are allowed but discouraged.
namespace metric {
// PHY — channel-wide and per-transceiver reception accounting.
inline constexpr std::string_view kPhyTransmissions = "phy.transmissions";
inline constexpr std::string_view kPhyDeliveries = "phy.deliveries";
inline constexpr std::string_view kPhyTxFrames = "phy.tx_frames";
inline constexpr std::string_view kPhySignalsArrived = "phy.signals_arrived";
inline constexpr std::string_view kPhyRxDecoded = "phy.rx_decoded";
inline constexpr std::string_view kPhyDropCollision = "phy.drop_collision";
inline constexpr std::string_view kPhyDropRxWhileBusy = "phy.drop_rx_while_busy";
inline constexpr std::string_view kPhyDropBelowSensitivity =
    "phy.drop_below_sensitivity";
inline constexpr std::string_view kPhyDropWhileOff = "phy.drop_while_off";
inline constexpr std::string_view kPhyDropAbortedOff = "phy.drop_aborted_off";
inline constexpr std::string_view kPhyTxDroppedOff = "phy.tx_dropped_off";
inline constexpr std::string_view kPhyTxDroppedBusy = "phy.tx_dropped_busy";

// MAC — contention, retries, queueing.
inline constexpr std::string_view kMacDataTx = "mac.data_tx";
inline constexpr std::string_view kMacAckTx = "mac.ack_tx";
inline constexpr std::string_view kMacRtsTx = "mac.rts_tx";
inline constexpr std::string_view kMacCtsTx = "mac.cts_tx";
inline constexpr std::string_view kMacBackoffs = "mac.backoffs";
inline constexpr std::string_view kMacRetries = "mac.retries";
inline constexpr std::string_view kMacCtsTimeouts = "mac.cts_timeouts";
inline constexpr std::string_view kMacNavDeferrals = "mac.nav_deferrals";
inline constexpr std::string_view kMacUnicastFailures = "mac.unicast_failures";
inline constexpr std::string_view kMacQueueDrops = "mac.queue_drops";
inline constexpr std::string_view kMacTxDroppedRadioOff =
    "mac.tx_dropped_radio_off";
inline constexpr std::string_view kMacQueueHighWater = "mac.queue_high_water";
inline constexpr std::string_view kMacBackoffSlots = "mac.backoff_slots";

// NET — per-node packet accounting and duplicate suppression.
inline constexpr std::string_view kNetTxData = "net.tx_data";
inline constexpr std::string_view kNetTxControl = "net.tx_control";
inline constexpr std::string_view kNetDelivered = "net.delivered";
inline constexpr std::string_view kNetDupCacheHits = "net.dup_cache_hits";
inline constexpr std::string_view kNetDupCacheEvictions =
    "net.dup_cache_evictions";

// Leader election / arbiter (core).
inline constexpr std::string_view kElectionArmed = "election.armed";
inline constexpr std::string_view kElectionWon = "election.won";
inline constexpr std::string_view kElectionCancelledDuplicate =
    "election.cancelled_duplicate";
inline constexpr std::string_view kElectionCancelledAck =
    "election.cancelled_ack";
inline constexpr std::string_view kElectionCancelledSuperseded =
    "election.cancelled_superseded";
inline constexpr std::string_view kArbiterWatches = "arbiter.watches";
inline constexpr std::string_view kArbiterRelaysHeard = "arbiter.relays_heard";
inline constexpr std::string_view kArbiterRetransmits = "arbiter.retransmits";
inline constexpr std::string_view kArbiterGaveUp = "arbiter.gave_up";

// Scheduler.
inline constexpr std::string_view kDesEventsExecuted = "des.events_executed";
/// Of des.events_executed, those handed off inline with nothing else due
/// first; run() runs all of them without a queue trip (des::Scheduler::
/// inline_count() says what a sliced or stepped run does with them).
inline constexpr std::string_view kDesEventsInline = "des.events_inline";
inline constexpr std::string_view kDesHeapHighWater = "des.heap_high_water";

// Pools and arenas (per-run deltas; gauges reset at run start).
inline constexpr std::string_view kPoolPacketAllocs =
    "pool.packet_buffer_allocs";
inline constexpr std::string_view kPoolPacketHeapAllocs =
    "pool.packet_buffer_heap_allocs";
inline constexpr std::string_view kPoolPacketInUseHighWater =
    "pool.packet_buffer_in_use_high_water";
inline constexpr std::string_view kPoolObjectAllocs = "pool.object_allocs";
inline constexpr std::string_view kPoolObjectHeapAllocs =
    "pool.object_heap_allocs";
inline constexpr std::string_view kPoolObjectInUseHighWater =
    "pool.object_in_use_high_water";
}  // namespace metric

}  // namespace rrnet::obs

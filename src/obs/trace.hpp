// Binary event tracer (observability pillar 2).
//
// A fixed-size-record ring buffer recording packet lifecycle (net send,
// tx start/end, rx decode, drop + reason, app delivery), election
// transitions and scheduler handler spans. Two gates keep it free when
// unused:
//
//  * Compile-time: hot-path call sites use RRNET_TRACE_EVENT(...), which
//    expands to nothing unless the build defines RRNET_TRACE (CMake
//    -DRRNET_TRACE=ON). The default build therefore carries zero
//    instructions of tracing overhead — this is the invariant the
//    scripts/verify.sh bench gate enforces.
//  * Runtime: with RRNET_TRACE compiled in, records are captured only while
//    a tracer is installed for the current thread (thread_tracer()) and
//    enabled. The per-event cost is then one TLS load and a branch.
//
// The ring is preallocated; record() never allocates (hot-path safe). When
// full it wraps, keeping the most recent records and counting the
// overwritten ones. The exporter emits the Chrome trace-event format — the
// produced file loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing: packet events are instants on pid 0 with tid = node id,
// and scheduler handler spans are duration events on pid 1 (ts = simulated
// microseconds, dur = handler wall-clock time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rrnet::obs {

enum class EventKind : std::uint16_t {
  NetSend = 0,       ///< network layer handed a packet to the MAC
  NetDeliver,        ///< packet delivered to the application
  PhyTxStart,        ///< frame put on the air
  PhyTxEnd,          ///< frame airtime over
  PhyRxDecoded,      ///< frame decoded by a receiver
  PhyDrop,           ///< reception lost; arg = DropReason
  MacDrop,           ///< frame dropped before airing; arg = DropReason
  ElectionArm,       ///< candidacy armed (id = flood key)
  ElectionCancel,    ///< candidacy conceded; arg = core::CancelReason
  ElectionWin,       ///< backoff expired, node relays
  ArbiterRetransmit, ///< arbiter re-triggered an election
  ArbiterAck,        ///< arbiter heard a relay and acknowledged
  HandlerSpan,       ///< one scheduler handler execution; id = wall ns
};

/// Drop classification shared by PhyDrop and MacDrop records.
enum class DropReason : std::uint16_t {
  BelowSensitivity = 0,  ///< rx power under the decode threshold
  Collision,             ///< SINR fell below threshold
  RxWhileBusy,           ///< arrived while Tx or locked on another frame
  RadioOff,              ///< radio sleeping / failed
  QueueOverflow,         ///< MAC queue full
  RetriesExhausted,      ///< unicast retry budget spent
  TxWhileBusy,           ///< transmit attempt while already transmitting
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;
[[nodiscard]] const char* to_string(DropReason reason) noexcept;

inline constexpr std::uint32_t kNoTraceNode = 0xFFFFFFFFu;

/// 24-byte POD record; the ring is a flat array of these.
struct TraceRecord {
  double time = 0.0;        ///< simulated seconds
  std::uint64_t id = 0;     ///< packet uid / flood key / frame id / wall ns
  std::uint32_t node = kNoTraceNode;
  std::uint16_t kind = 0;   ///< EventKind
  std::uint16_t arg = 0;    ///< DropReason, PacketType, CancelReason, ...
};
static_assert(sizeof(TraceRecord) == 24, "keep trace records cache-friendly");

class EventTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  /// Preallocates the ring; record() never allocates afterwards.
  explicit EventTracer(std::size_t capacity = kDefaultCapacity);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Append one record (dropping the oldest when the ring is full). No-op
  /// while disabled. Never allocates.
  void record(EventKind kind, double time, std::uint32_t node,
              std::uint64_t id, std::uint16_t arg = 0) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Records currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Total records accepted, including ones the wrap discarded.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Records lost to ring wrap.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  void clear() noexcept;

  /// Held records, oldest first.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}); loads in Perfetto.
  /// Returns false on stream failure.
  bool export_chrome_trace(std::ostream& os) const;
  /// File helper; false when the file cannot be written.
  bool export_chrome_trace_file(const std::string& path) const;

 private:
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const;

  std::vector<TraceRecord> ring_;
  std::uint64_t recorded_ = 0;
  bool enabled_ = false;
};

/// The tracer capturing this thread's events (null = none). Installed per
/// worker thread by sim::SimInstance, matching the simulator's
/// shared-nothing replication model.
[[nodiscard]] EventTracer* thread_tracer() noexcept;
/// Install `tracer` for the calling thread; returns the previous tracer.
EventTracer* set_thread_tracer(EventTracer* tracer) noexcept;

/// True when the build compiled hot-path instrumentation in (RRNET_TRACE).
[[nodiscard]] bool trace_compiled_in() noexcept;

}  // namespace rrnet::obs

// Hot-path instrumentation macro: zero-cost unless RRNET_TRACE is defined.
#ifdef RRNET_TRACE
#define RRNET_TRACE_EVENT(kind, time, node, id, arg)                       \
  do {                                                                     \
    ::rrnet::obs::EventTracer* rrnet_tracer_ =                             \
        ::rrnet::obs::thread_tracer();                                     \
    if (rrnet_tracer_ != nullptr) {                                        \
      rrnet_tracer_->record((kind), (time),                                \
                            static_cast<std::uint32_t>(node),              \
                            static_cast<std::uint64_t>(id),                \
                            static_cast<std::uint16_t>(arg));              \
    }                                                                      \
  } while (false)
#else
#define RRNET_TRACE_EVENT(kind, time, node, id, arg) \
  do {                                               \
  } while (false)
#endif

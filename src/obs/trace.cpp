#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "util/contracts.hpp"

namespace rrnet::obs {

namespace {
thread_local EventTracer* t_tracer = nullptr;
}  // namespace

EventTracer* thread_tracer() noexcept { return t_tracer; }

EventTracer* set_thread_tracer(EventTracer* tracer) noexcept {
  EventTracer* previous = t_tracer;
  t_tracer = tracer;
  return previous;
}

bool trace_compiled_in() noexcept {
#ifdef RRNET_TRACE
  return true;
#else
  return false;
#endif
}

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::NetSend: return "net_send";
    case EventKind::NetDeliver: return "net_deliver";
    case EventKind::PhyTxStart: return "phy_tx_start";
    case EventKind::PhyTxEnd: return "phy_tx_end";
    case EventKind::PhyRxDecoded: return "phy_rx_decoded";
    case EventKind::PhyDrop: return "phy_drop";
    case EventKind::MacDrop: return "mac_drop";
    case EventKind::ElectionArm: return "election_arm";
    case EventKind::ElectionCancel: return "election_cancel";
    case EventKind::ElectionWin: return "election_win";
    case EventKind::ArbiterRetransmit: return "arbiter_retransmit";
    case EventKind::ArbiterAck: return "arbiter_ack";
    case EventKind::HandlerSpan: return "handler_span";
  }
  return "unknown";
}

const char* to_string(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::BelowSensitivity: return "below_sensitivity";
    case DropReason::Collision: return "collision";
    case DropReason::RxWhileBusy: return "rx_while_busy";
    case DropReason::RadioOff: return "radio_off";
    case DropReason::QueueOverflow: return "queue_overflow";
    case DropReason::RetriesExhausted: return "retries_exhausted";
    case DropReason::TxWhileBusy: return "tx_while_busy";
  }
  return "unknown";
}

EventTracer::EventTracer(std::size_t capacity) {
  RRNET_EXPECTS(capacity > 0);
  ring_.resize(capacity);
}

void EventTracer::record(EventKind kind, double time, std::uint32_t node,
                         std::uint64_t id, std::uint16_t arg) noexcept {
  if (!enabled_) return;
  TraceRecord& slot = ring_[recorded_ % ring_.size()];
  slot.time = time;
  slot.id = id;
  slot.node = node;
  slot.kind = static_cast<std::uint16_t>(kind);
  slot.arg = arg;
  ++recorded_;
}

std::size_t EventTracer::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(recorded_, ring_.size()));
}

std::uint64_t EventTracer::dropped() const noexcept {
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0u;
}

void EventTracer::clear() noexcept { recorded_ = 0; }

template <typename Fn>
void EventTracer::for_each_ordered(Fn&& fn) const {
  const std::size_t n = size();
  const std::size_t start =
      recorded_ > ring_.size()
          ? static_cast<std::size_t>(recorded_ % ring_.size())
          : 0u;
  for (std::size_t i = 0; i < n; ++i) {
    fn(ring_[(start + i) % ring_.size()]);
  }
}

std::vector<TraceRecord> EventTracer::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size());
  for_each_ordered([&](const TraceRecord& r) { out.push_back(r); });
  return out;
}

namespace {

bool is_drop(EventKind kind) noexcept {
  return kind == EventKind::PhyDrop || kind == EventKind::MacDrop;
}

void append_chrome_preamble(std::ostream& os) {
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"network (tid = node id)\"}},\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"scheduler\"}}";
}

void append_chrome_record(std::ostream& os, const TraceRecord& r) {
  const auto kind = static_cast<EventKind>(r.kind);
  const double ts_us = r.time * 1e6;  // simulated seconds -> microseconds
  os << ",\n";
  if (kind == EventKind::HandlerSpan) {
    // Span on the scheduler track: position on the simulated-time axis,
    // width = the handler's wall-clock cost (id field carries wall ns).
    const double dur_us = std::max(static_cast<double>(r.id) * 1e-3, 1e-3);
    os << "{\"name\":\"handler\",\"ph\":\"X\",\"ts\":" << ts_us
       << ",\"dur\":" << dur_us
       << ",\"pid\":1,\"tid\":0,\"args\":{\"wall_ns\":" << r.id << "}}";
    return;
  }
  os << "{\"name\":\"" << to_string(kind);
  if (is_drop(kind)) {
    os << "(" << to_string(static_cast<DropReason>(r.arg)) << ")";
  }
  os << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us << ",\"pid\":0"
     << ",\"tid\":" << (r.node == kNoTraceNode ? 0u : r.node)
     << ",\"args\":{\"id\":" << r.id << ",\"arg\":" << r.arg << "}}";
}

}  // namespace

bool EventTracer::export_chrome_trace(std::ostream& os) const {
  append_chrome_preamble(os);
  for_each_ordered([&](const TraceRecord& r) { append_chrome_record(os, r); });
  os << "\n]}\n";
  return static_cast<bool>(os);
}

bool EventTracer::export_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  return export_chrome_trace(os);
}

}  // namespace rrnet::obs

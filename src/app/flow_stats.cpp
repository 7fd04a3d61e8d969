#include "app/flow_stats.hpp"

namespace rrnet::app {

void FlowStats::record_sent(std::uint64_t uid) {
  ++sent_;
  outstanding_.observe(uid);
}

void FlowStats::record_delivered(const net::PacketRef& packet, des::Time now) {
  const std::uint64_t uid = packet.uid();
  if (!seen_uids_.observe(uid)) return;  // duplicate delivery
  // Only count deliveries of packets we saw depart; protocols may also
  // deliver control traffic through the same handler in exotic setups.
  if (!outstanding_.erase(uid)) return;
  ++delivered_;
  delay_.add(now - packet.created_at());
  hops_.add(static_cast<double>(packet.actual_hops()));
}

double FlowStats::delivery_ratio() const noexcept {
  if (sent_ == 0) return 0.0;
  return static_cast<double>(delivered_) / static_cast<double>(sent_);
}

}  // namespace rrnet::app

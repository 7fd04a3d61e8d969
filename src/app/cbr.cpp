#include "app/cbr.hpp"

#include "util/contracts.hpp"

namespace rrnet::app {

CbrSource::CbrSource(net::Node& node, std::uint32_t target, CbrConfig config,
                     FlowStats& stats)
    : node_(&node),
      target_(target),
      config_(config),
      stats_(&stats),
      timer_(node.scheduler()),
      rng_(node.rng().fork("cbr", target)) {
  RRNET_EXPECTS(config.interval > 0.0);
  RRNET_EXPECTS(target != node.id());
}

void CbrSource::start() {
  // Desynchronize sources: the first packet departs a random fraction of
  // one interval after start_time.
  const des::Time first =
      config_.start_time + rng_.uniform(0.0, config_.interval);
  timer_.start(first, [this]() { send_one(); });
}

void CbrSource::send_one() {
  const des::Time now = node_->scheduler().now();
  if (config_.stop_time > 0.0 && now >= config_.stop_time) return;
  const std::uint64_t uid =
      node_->protocol().send_data(target_, config_.payload_bytes);
  ++sent_;
  stats_->record_sent(uid);
  timer_.start(config_.interval, [this]() { send_one(); });
}

void attach_sink(net::Node& node, FlowStats& stats) {
  net::Node* node_ptr = &node;
  node.set_delivery_handler([node_ptr, &stats](const net::PacketRef& packet) {
    stats.record_delivered(packet, node_ptr->scheduler().now());
  });
}

}  // namespace rrnet::app

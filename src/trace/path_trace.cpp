#include "trace/path_trace.hpp"

#include "net/network.hpp"
#include "util/stats.hpp"

namespace rrnet::trace {

PathTrace::PathTrace(net::Network& network, std::uint32_t type_mask)
    : network_(&network), type_mask_(type_mask) {
  network.add_observer(this);
}

PathTrace::~PathTrace() { network_->remove_observer(this); }

void PathTrace::on_network_tx(std::uint32_t node,
                              const net::PacketRef& packet) {
  if (!traced(packet.type())) return;
  PacketPath& path = paths_[packet.uid()];
  if (path.hops.empty()) {
    path.origin = packet.origin();
    path.target = packet.target();
  }
  path.hops.push_back(Hop{node, network_->channel().position(node),
                          network_->scheduler().now()});
}

void PathTrace::on_delivered(std::uint32_t node,
                             const net::PacketRef& packet) {
  if (!traced(packet.type())) return;
  PacketPath& path = paths_[packet.uid()];
  if (path.hops.empty()) {
    path.origin = packet.origin();
    path.target = packet.target();
  }
  path.delivered = true;
  path.delivered_at = network_->scheduler().now();
  path.hops.push_back(Hop{node, network_->channel().position(node),
                          network_->scheduler().now()});
}

double PathTrace::mean_detour(const PacketPath& path, geom::Vec2 a,
                              geom::Vec2 b) {
  if (path.hops.empty()) return 0.0;
  util::Accumulator acc;
  for (const Hop& hop : path.hops) {
    acc.add(geom::distance_to_segment(hop.position, a, b));
  }
  return acc.mean();
}

}  // namespace rrnet::trace

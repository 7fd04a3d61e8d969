#include "proto/route_wait.hpp"

#include <utility>

#include "net/node.hpp"
#include "util/contracts.hpp"

namespace rrnet::proto {

template <typename Build>
bool RouteWait::hold_built(std::uint32_t target, Build build) {
  Entry& entry =
      entries_.try_emplace(target, owner_->node().scheduler()).first->second;
  if (entry.held.size() >= owner_->wait_limits().capacity) return false;
  entry.held.push_back(build());
  // Packets leave only with their entry, so only a new one holds just one.
  if (entry.held.size() == 1) start_discovery(target, entry);
  return true;
}

bool RouteWait::hold(std::uint32_t target, net::PacketRef packet) {
  return hold_built(target, [&packet]() { return std::move(packet); });
}

bool RouteWait::hold(std::uint32_t target, net::PacketInit init) {
  return hold_built(target,
                    [&init]() { return net::make_packet(std::move(init)); });
}

void RouteWait::start_discovery(std::uint32_t target, Entry& entry) {
  if (!owner_->discover(target, entry.retries)) return;
  entry.timer.start(owner_->wait_limits().timeout,
                    [this, target]() { expire(target); });
}

void RouteWait::expire(std::uint32_t target) {
  const auto it = entries_.find(target);
  RRNET_ASSERT(it != entries_.end());  // erasing an entry cancels its timer
  if (owner_->route_known(target)) {
    release(target);
    return;
  }
  Entry& entry = it->second;
  if (entry.retries >= owner_->wait_limits().max_retries) {
    const std::size_t dropped = entry.held.size();
    entries_.erase(it);
    owner_->gave_up(dropped);
    return;
  }
  ++entry.retries;
  start_discovery(target, entry);
}

void RouteWait::release(std::uint32_t target) {
  const auto it = entries_.find(target);
  if (it == entries_.end()) return;
  std::vector<net::PacketRef> held = std::move(it->second.held);
  entries_.erase(it);
  owner_->send_held(target, std::move(held));
}

}  // namespace rrnet::proto

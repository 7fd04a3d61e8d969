#include "sim/mobility.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace rrnet::sim {

RandomWaypoint::RandomWaypoint(des::Scheduler& scheduler,
                               phy::Channel& channel,
                               const geom::Terrain& terrain,
                               MobilityConfig config, des::Rng rng)
    : scheduler_(&scheduler),
      channel_(&channel),
      terrain_(terrain),
      config_(std::move(config)),
      rng_(rng),
      states_(channel.node_count()) {
  RRNET_EXPECTS(config_.min_speed_mps > 0.0);
  RRNET_EXPECTS(config_.max_speed_mps >= config_.min_speed_mps);
  RRNET_EXPECTS(config_.tick_s > 0.0);
  for (const std::uint32_t node : config_.pinned_nodes) {
    RRNET_EXPECTS(node < states_.size());
    states_[node].pinned = true;
  }
}

void RandomWaypoint::choose_waypoint(std::uint32_t node) {
  NodeState& st = states_[node];
  st.waypoint = {rng_.uniform(0.0, terrain_.width()),
                 rng_.uniform(0.0, terrain_.height())};
  st.speed = rng_.uniform(config_.min_speed_mps, config_.max_speed_mps);
  st.paused = false;
}

void RandomWaypoint::start() {
  // Id order: each node draws from the one stream in turn.
  for (std::uint32_t node = 0; node < states_.size(); ++node) {
    if (states_[node].pinned) continue;
    choose_waypoint(node);
    // Desynchronize ticks across nodes.
    scheduler_->schedule_in(rng_.uniform(0.0, config_.tick_s),
                            [this, node]() { tick(node); });
  }
}

void RandomWaypoint::tick(std::uint32_t node) {
  NodeState& st = states_[node];
  if (st.paused) {
    choose_waypoint(node);
    scheduler_->schedule_in(config_.tick_s, [this, node]() { tick(node); });
    return;
  }
  const geom::Vec2 pos = channel_->position(node);
  const geom::Vec2 to_waypoint = st.waypoint - pos;
  const double remaining = to_waypoint.norm();
  const double step = st.speed * config_.tick_s;
  if (remaining <= step) {
    channel_->set_position(node, st.waypoint);
    st.traveled += remaining;
    st.paused = true;
    scheduler_->schedule_in(config_.pause_s, [this, node]() { tick(node); });
    return;
  }
  const geom::Vec2 next = pos + to_waypoint * (step / remaining);
  channel_->set_position(node, terrain_.clamp(next));
  st.traveled += step;
  scheduler_->schedule_in(config_.tick_s, [this, node]() { tick(node); });
}

double RandomWaypoint::distance_traveled(std::uint32_t node) const {
  RRNET_EXPECTS(node < states_.size());
  return states_[node].traveled;
}

}  // namespace rrnet::sim

#include "phy/failure.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace rrnet::phy {

FailureModel::FailureModel(des::Scheduler& scheduler, Channel& channel,
                           FailureConfig config, des::Rng rng)
    : scheduler_(&scheduler),
      channel_(&channel),
      config_(std::move(config)),
      rng_(rng),
      states_(channel.node_count()) {
  RRNET_EXPECTS(config_.off_fraction >= 0.0 && config_.off_fraction < 1.0);
  RRNET_EXPECTS(config_.mean_cycle_s > 0.0);
}

des::Time FailureModel::mean_on() const noexcept {
  return config_.mean_cycle_s * (1.0 - config_.off_fraction);
}

des::Time FailureModel::mean_off() const noexcept {
  return config_.mean_cycle_s * config_.off_fraction;
}

void FailureModel::start() {
  RRNET_EXPECTS(!started_);
  started_ = true;
  if (config_.off_fraction <= 0.0) return;
  // Id order: each node draws from the one stream in turn.
  for (std::uint32_t node = 0; node < states_.size(); ++node) {
    if (std::find(config_.exempt_nodes.begin(), config_.exempt_nodes.end(),
                  node) != config_.exempt_nodes.end()) {
      continue;
    }
    NodeState& st = states_[node];
    st.managed = true;
    st.last_change = scheduler_->now();
    // Stationary initial state.
    if (rng_.bernoulli(config_.off_fraction)) {
      st.off = true;
      channel_->transceiver(node).turn_off();
    }
    schedule_toggle(node);
  }
}

void FailureModel::schedule_toggle(std::uint32_t node) {
  NodeState& st = states_[node];
  const des::Time dwell =
      rng_.exponential(st.off ? mean_off() : mean_on());
  scheduler_->schedule_in(dwell, [this, node]() {
    NodeState& s = states_[node];
    const des::Time now = scheduler_->now();
    if (s.off) {
      s.off_accum += now - s.last_change;
      channel_->transceiver(node).turn_on();
      s.off = false;
    } else {
      channel_->transceiver(node).turn_off();
      s.off = true;
    }
    s.last_change = now;
    schedule_toggle(node);
  });
}

double FailureModel::observed_off_fraction(std::uint32_t node) const {
  RRNET_EXPECTS(node < states_.size());
  const NodeState& st = states_[node];
  const des::Time now = scheduler_->now();
  if (now <= 0.0) return 0.0;
  des::Time off = st.off_accum;
  if (st.off) off += now - st.last_change;
  return off / now;
}

}  // namespace rrnet::phy

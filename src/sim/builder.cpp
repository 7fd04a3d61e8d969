#include "sim/builder.hpp"

#include <algorithm>
#include <charconv>
#include <string>

#include "geom/placement.hpp"
#include "obs/health.hpp"
#include "sim/topology.hpp"
#include "proto/flooding.hpp"
#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace rrnet::sim {

namespace {

/// Walk the calling thread's object size-class pools.
template <typename Fn>
void for_each_object_pool(Fn&& fn) {
  for (std::size_t bytes = util::kSizeClassStep; bytes <= util::kSizeClassMax;
       bytes += util::kSizeClassStep) {
    fn(util::sized_pool(bytes));
  }
}

/// Attach the configured protocol type to one node.
void attach_protocol(const ScenarioConfig& config, net::Node& node) {
  switch (config.protocol) {
    case ProtocolKind::Counter1Flooding:
      node.set_protocol(proto::make_counter1_flooding(node));
      return;
    case ProtocolKind::Ssaf:
      node.set_protocol(proto::make_ssaf(node, config.ssaf));
      return;
    case ProtocolKind::BlindFlooding: {
      proto::FloodingConfig fc;
      fc.blind = true;
      node.set_protocol(std::make_unique<proto::FloodingProtocol>(
          node, fc, std::make_unique<core::UniformBackoff>(fc.lambda)));
      return;
    }
    case ProtocolKind::Routeless:
      node.set_protocol(
          std::make_unique<proto::RoutelessProtocol>(node, config.routeless));
      return;
    case ProtocolKind::Aodv:
      node.set_protocol(
          std::make_unique<proto::AodvProtocol>(node, config.aodv));
      return;
    case ProtocolKind::Gradient:
      node.set_protocol(
          std::make_unique<proto::GradientProtocol>(node, config.gradient));
      return;
    case ProtocolKind::Dsdv:
      node.set_protocol(
          std::make_unique<proto::DsdvProtocol>(node, config.dsdv));
      return;
    case ProtocolKind::Dsr:
      node.set_protocol(
          std::make_unique<proto::DsrProtocol>(node, config.dsr));
      return;
  }
  RRNET_ASSERT(false);
}

/// Pre-carve the calling thread's size-class pools for `nodes` node
/// stacks (node + transceiver + MAC + the configured protocol), so
/// large-n construction is a handful of arena carves instead of O(n)
/// pool-exhaustion heap fallbacks. Only the shortfall beyond what the
/// thread's pools already hold is carved — small runs are untouched.
void reserve_node_pools(const ScenarioConfig& config, std::size_t nodes) {
  if (nodes == 0) return;
  // One entry per size class: distinct types can share a class, so counts
  // accumulate before any pool is grown.
  std::size_t need[util::kSizeClassMax / util::kSizeClassStep] = {};
  const auto note = [&](std::size_t bytes) {
    if (bytes == 0 || bytes > util::kSizeClassMax) return;
    need[(bytes + util::kSizeClassStep - 1) / util::kSizeClassStep - 1] +=
        nodes;
  };
  note(sizeof(net::Node));
  note(sizeof(phy::Transceiver));
  note(sizeof(mac::CsmaMac));
  switch (config.protocol) {
    case ProtocolKind::Counter1Flooding:
    case ProtocolKind::BlindFlooding:
      note(sizeof(proto::FloodingProtocol));
      break;
    case ProtocolKind::Ssaf:
      note(sizeof(proto::SsafProtocol));
      break;
    case ProtocolKind::Routeless:
      note(sizeof(proto::RoutelessProtocol));
      break;
    case ProtocolKind::Aodv:
      note(sizeof(proto::AodvProtocol));
      break;
    case ProtocolKind::Gradient:
      note(sizeof(proto::GradientProtocol));
      break;
    case ProtocolKind::Dsdv:
      note(sizeof(proto::DsdvProtocol));
      break;
    case ProtocolKind::Dsr:
      note(sizeof(proto::DsrProtocol));
      break;
  }
  for (std::size_t i = 0; i < util::kSizeClassMax / util::kSizeClassStep; ++i) {
    if (need[i] == 0) continue;
    const std::size_t rounded = (i + 1) * util::kSizeClassStep;
    util::PayloadPool& pool = util::sized_pool(rounded);
    pool.ensure_capacity(pool.in_use() + need[i], rounded);
  }
}

}  // namespace

std::unique_ptr<phy::PropagationModel> SimInstance::make_propagation(
    const ScenarioConfig& config) {
  const double f = config.radio.frequency_hz;
  switch (config.propagation) {
    case PropagationKind::FreeSpace:
      return std::make_unique<phy::FreeSpace>(f);
    case PropagationKind::TwoRay:
      return std::make_unique<phy::TwoRayGround>(f);
    case PropagationKind::LogDistance:
      return std::make_unique<phy::LogDistance>(config.pathloss_exponent, 1.0, f);
    case PropagationKind::Rayleigh:
      return std::make_unique<phy::RayleighFading>(
          std::make_unique<phy::FreeSpace>(f));
    case PropagationKind::Shadowing:
      return std::make_unique<phy::LogNormalShadowing>(
          std::make_unique<phy::FreeSpace>(f), config.shadowing_sigma_db);
  }
  return std::make_unique<phy::FreeSpace>(f);
}

SimInstance::SimInstance(const ScenarioConfig& config)
    : config_(config),
      terrain_(config.width_m, config.height_m) {
  RRNET_EXPECTS(config.nodes >= 2);

  // Pool metrics are per-run deltas: the thread-local arenas accumulate
  // counters across every run on this worker thread, so capture baselines
  // (and restart the occupancy high-waters) before building anything. A run
  // starts with all prior buffers released, so deltas are deterministic per
  // seed regardless of how many runs this thread served before.
  {
    util::PayloadPool& pkt = net::packet_buffer_pool();
    pkt.reset_high_water();
    packet_allocs_base_ = pkt.stats().pool_allocs + pkt.stats().heap_allocs;
    packet_heap_allocs_base_ = pkt.stats().heap_allocs;
    object_allocs_base_ = 0;
    object_heap_allocs_base_ = 0;
    for_each_object_pool([this](util::PayloadPool& pool) {
      pool.reset_high_water();
      object_allocs_base_ += pool.stats().pool_allocs + pool.stats().heap_allocs;
      object_heap_allocs_base_ += pool.stats().heap_allocs;
    });
  }

  if (config_.trace_events) {
    tracer_ = std::make_unique<obs::EventTracer>(config_.trace_capacity);
    tracer_->set_enabled(true);
    prev_tracer_ = obs::set_thread_tracer(tracer_.get());
  }

  des::Rng root(config.seed);

  auto model = make_propagation(config_);
  phy::RadioParams radio = config_.radio;
  // Calibrate tx power so the nominal range is exactly config.range_m.
  radio.tx_power_dbm =
      phy::tx_power_for_range(*model, config_.range_m, radio.rx_threshold_dbm);

  des::Rng placement_rng = root.fork("placement");
  std::vector<geom::Vec2> positions =
      geom::place_uniform(terrain_, config_.nodes, placement_rng);

  reserve_node_pools(config_, config_.nodes);
  network_ = std::make_unique<net::Network>(
      scheduler_, terrain_, std::move(model), radio, config_.mac,
      std::move(positions), root.fork("network"));

  // In the network's layout order, so protocols sit in space order too.
  for (const std::uint32_t id : network_->channel().layout_order()) {
    attach_protocol(config_, network_->node(id));
    app::attach_sink(network_->node(id), flows_);
  }

  // Traffic pairs. Topology and pair drawing stay in id order: the draws
  // name ids.
  if (!config_.explicit_pairs.empty()) {
    pairs_ = config_.explicit_pairs;
  } else {
    des::Rng pair_rng = root.fork("pairs");
    if (config_.require_connected_pairs) {
      const Topology topology(network_->channel());
      pairs_ = draw_connected_pairs(topology, config_.pairs, pair_rng,
                                    config_.min_pair_hops);
    } else {
      pairs_ = draw_pairs(network_->size(), config_.pairs, pair_rng);
    }
  }
  app::CbrConfig cbr;
  cbr.interval = config_.cbr_interval;
  cbr.payload_bytes = config_.payload_bytes;
  cbr.start_time = config_.traffic_start;
  cbr.stop_time = config_.traffic_stop;
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    const auto& [src, dst] = pairs_[p];
    RRNET_EXPECTS(src < network_->size() && dst < network_->size());
    app::CbrConfig pair_cbr = cbr;
    if (p < config_.explicit_pair_intervals.size() &&
        config_.explicit_pair_intervals[p] > 0.0) {
      pair_cbr.interval = config_.explicit_pair_intervals[p];
    }
    sources_.push_back(std::make_unique<app::CbrSource>(network_->node(src),
                                                        dst, pair_cbr, flows_));
    if (config_.bidirectional) {
      sources_.push_back(std::make_unique<app::CbrSource>(
          network_->node(dst), src, pair_cbr, flows_));
    }
  }

  // Node failures: traffic endpoints are exempt (the paper turns off
  // transceivers "in all nodes but those that generate and receive CBR
  // traffic").
  if (config_.failure_fraction > 0.0) {
    phy::FailureConfig fc;
    fc.off_fraction = config_.failure_fraction;
    fc.mean_cycle_s = config_.failure_cycle_s;
    for (const auto& [src, dst] : pairs_) {
      fc.exempt_nodes.push_back(src);
      fc.exempt_nodes.push_back(dst);
    }
    failures_ = std::make_unique<phy::FailureModel>(
        scheduler_, network_->channel(), fc, root.fork("failures"));
  }

  if (config_.mobility) {
    MobilityConfig mc;
    mc.min_speed_mps = config_.mobility_min_speed_mps;
    mc.max_speed_mps = config_.mobility_max_speed_mps;
    mc.pause_s = config_.mobility_pause_s;
    for (const auto& [src, dst] : pairs_) {
      mc.pinned_nodes.push_back(src);
      mc.pinned_nodes.push_back(dst);
    }
    mobility_ = std::make_unique<RandomWaypoint>(
        scheduler_, network_->channel(), terrain_, mc, root.fork("mobility"));
  }

  if (config_.track_energy) {
    for (const std::uint32_t id : network_->channel().layout_order()) {
      network_->channel().transceiver(id).enable_energy(
          config_.energy_profile, scheduler_);
    }
  }

  if (config_.trace_paths) {
    trace_ = std::make_unique<trace::PathTrace>(*network_);
  }
}

SimInstance::~SimInstance() {
  // Only restore if we are still the installed tracer: a later SimInstance
  // on this thread may have replaced us (LIFO destruction restores
  // correctly; other orders leave the newest tracer installed).
  if (tracer_ != nullptr && obs::thread_tracer() == tracer_.get()) {
    obs::set_thread_tracer(prev_tracer_);
  }
}

void SimInstance::run_until(des::Time t) {
  // Re-install our tracer in case another instance was built in between.
  if (tracer_ != nullptr && obs::thread_tracer() != tracer_.get()) {
    obs::set_thread_tracer(tracer_.get());
  }
  // A contract violation names the failed check and its source line; add
  // when in the run it fired, so the failing event can be found again.
  try {
    if (!started_) {
      started_ = true;
      network_->start_protocols();
      if (failures_ != nullptr) failures_->start();
      if (mobility_ != nullptr) mobility_->start();
      for (auto& source : sources_) source->start();
    }
    obs::RunHealthMonitor* monitor = config_.health_monitor;
    if (monitor == nullptr) {
      scheduler_.run_until(t);
      return;
    }
    // Serial health sampling: run in bounded event slices so the monitor
    // can sample throughput/RSS "every N events" and enforce budgets
    // between slices. The slice sequence executes exactly what one
    // run_until(t) would, so results are unchanged; a budget abort stops at
    // a slice edge and keeps the partial state consistent for result().
    constexpr std::uint64_t kEventsPerCheckpoint = std::uint64_t{1} << 18;
    bool within_budget = monitor->checkpoint(scheduler_.executed_count());
    while (within_budget && !scheduler_.run_until(t, kEventsPerCheckpoint)) {
      within_budget = monitor->checkpoint(scheduler_.executed_count());
    }
  } catch (const ContractViolation& e) {
    // Shortest decimal that reads back as the same time, e.g. "0.5".
    char now[32];
    const std::to_chars_result end =
        std::to_chars(now, now + sizeof now, scheduler_.now());
    throw ContractViolation(std::string(e.what()) + " (at sim time " +
                            std::string(now, end.ptr) +
                            " s, events executed: " +
                            std::to_string(scheduler_.executed_count()) + ")");
  }
}

void SimInstance::run() {
  run_until(config_.sim_end);
  if (config_.health_monitor != nullptr) {
    config_.health_monitor->finish_run(scheduler_.executed_count());
  }
}

ScenarioResult SimInstance::result() const {
  ScenarioResult r;
  r.sent = flows_.sent();
  r.delivered = flows_.delivered();
  r.delivery_ratio = flows_.delivery_ratio();
  r.mean_delay_s = flows_.delay().empty() ? 0.0 : flows_.delay().mean();
  r.mean_hops = flows_.hops().empty() ? 0.0 : flows_.hops().mean();
  r.mac_packets = network_->total_mac_tx();
  r.events_executed = scheduler_.executed_count();
  if (config_.track_energy) {
    double joules = 0.0;
    // Id order: floating-point addition is not associative.
    for (std::uint32_t id = 0; id < network_->size(); ++id) {
      // finalize_energy is idempotent at a fixed clock time.
      auto& radio = const_cast<SimInstance*>(this)
                        ->network_->channel().transceiver(id);
      radio.finalize_energy();
      if (const phy::EnergyMeter* meter = radio.energy_meter()) {
        joules += meter->consumed_joules();
      }
    }
    r.total_energy_j = joules;
    if (r.delivered > 0) {
      r.energy_per_delivered_j = joules / static_cast<double>(r.delivered);
    }
  }

  // Per-layer counter snapshot. Must run on the thread that ran the
  // simulation (the pools are thread-local); replication workers respect
  // this by building, running, and reading each instance on one thread.
  namespace m = obs::metric;
  network_->snapshot_metrics(r.metrics);
  r.channel_transmissions = r.metrics.value(m::kPhyTransmissions);
  r.metrics.add(m::kDesEventsExecuted, scheduler_.executed_count());
  r.metrics.add(m::kDesEventsInline, scheduler_.inline_count());
  r.metrics.set_max(m::kDesHeapHighWater, scheduler_.heap_high_water());

  const util::PayloadPool& pkt = net::packet_buffer_pool();
  r.metrics.add(m::kPoolPacketAllocs, pkt.stats().pool_allocs +
                                          pkt.stats().heap_allocs -
                                          packet_allocs_base_);
  r.metrics.add(m::kPoolPacketHeapAllocs,
                pkt.stats().heap_allocs - packet_heap_allocs_base_);
  r.metrics.set_max(m::kPoolPacketInUseHighWater, pkt.in_use_high_water());
  std::uint64_t object_allocs = 0;
  std::uint64_t object_heap_allocs = 0;
  std::uint64_t object_in_use_hw = 0;
  for_each_object_pool([&](const util::PayloadPool& pool) {
    object_allocs += pool.stats().pool_allocs + pool.stats().heap_allocs;
    object_heap_allocs += pool.stats().heap_allocs;
    object_in_use_hw += pool.in_use_high_water();
  });
  r.metrics.add(m::kPoolObjectAllocs, object_allocs - object_allocs_base_);
  r.metrics.add(m::kPoolObjectHeapAllocs,
                object_heap_allocs - object_heap_allocs_base_);
  r.metrics.set_max(m::kPoolObjectInUseHighWater, object_in_use_hw);
  return r;
}

}  // namespace rrnet::sim

// Builds and owns one complete simulation instance from a ScenarioConfig:
// scheduler, terrain, channel/network, protocols, traffic, failures, traces.
#pragma once

#include <memory>
#include <vector>

#include "app/cbr.hpp"
#include "app/flow_stats.hpp"
#include "des/scheduler.hpp"
#include "geom/terrain.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "phy/failure.hpp"
#include "sim/mobility.hpp"
#include "sim/scenario.hpp"
#include "trace/path_trace.hpp"

namespace rrnet::sim {

class SimInstance {
 public:
  explicit SimInstance(const ScenarioConfig& config);
  ~SimInstance();
  SimInstance(const SimInstance&) = delete;
  SimInstance& operator=(const SimInstance&) = delete;

  /// Run to config.sim_end. May be called repeatedly with later horizons
  /// via run_until(). A ContractViolation that escapes a handler is
  /// rethrown with the sim time and the events executed appended.
  void run();
  void run_until(des::Time t);

  [[nodiscard]] ScenarioResult result() const;

  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }
  [[nodiscard]] des::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] app::FlowStats& flows() noexcept { return flows_; }
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  pairs() const noexcept {
    return pairs_;
  }
  /// Null unless config.trace_paths.
  [[nodiscard]] trace::PathTrace* path_trace() noexcept { return trace_.get(); }
  /// Null unless config.trace_events.
  [[nodiscard]] obs::EventTracer* tracer() noexcept { return tracer_.get(); }
  /// Null unless config.failure_fraction > 0.
  [[nodiscard]] phy::FailureModel* failures() noexcept { return failures_.get(); }
  /// Null unless config.mobility.
  [[nodiscard]] RandomWaypoint* mobility() noexcept { return mobility_.get(); }
  [[nodiscard]] const geom::Terrain& terrain() const noexcept { return terrain_; }

  /// Build the propagation model a config describes (also used by tests).
  [[nodiscard]] static std::unique_ptr<phy::PropagationModel>
  make_propagation(const ScenarioConfig& config);

 private:
  ScenarioConfig config_;
  des::Scheduler scheduler_;
  geom::Terrain terrain_;
  std::unique_ptr<net::Network> network_;
  app::FlowStats flows_;
  std::vector<std::unique_ptr<app::CbrSource>> sources_;
  std::unique_ptr<phy::FailureModel> failures_;
  std::unique_ptr<RandomWaypoint> mobility_;
  std::unique_ptr<trace::PathTrace> trace_;
  std::unique_ptr<obs::EventTracer> tracer_;
  obs::EventTracer* prev_tracer_ = nullptr;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  bool started_ = false;
  // Thread-local pools outlive runs, so per-run pool metrics are deltas
  // from these ctor-time baselines (see result()).
  std::uint64_t packet_allocs_base_ = 0;
  std::uint64_t packet_heap_allocs_base_ = 0;
  std::uint64_t object_allocs_base_ = 0;
  std::uint64_t object_heap_allocs_base_ = 0;
};

}  // namespace rrnet::sim

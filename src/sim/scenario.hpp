// Declarative scenario description — everything a paper experiment needs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "des/rng.hpp"
#include "des/time.hpp"
#include "obs/metrics.hpp"
#include "phy/energy.hpp"
#include "mac/csma.hpp"
#include "phy/radio.hpp"
#include "proto/aodv.hpp"
#include "proto/dsdv.hpp"
#include "proto/dsr.hpp"
#include "proto/gradient.hpp"
#include "proto/routeless.hpp"
#include "proto/ssaf.hpp"

namespace rrnet::obs {
class RunHealthMonitor;
}  // namespace rrnet::obs

namespace rrnet::sim {

enum class ProtocolKind : std::uint8_t {
  Counter1Flooding,
  Ssaf,
  BlindFlooding,
  Routeless,
  Aodv,
  Gradient,
  Dsdv,
  Dsr,
};

[[nodiscard]] const char* to_string(ProtocolKind kind) noexcept;

enum class PropagationKind : std::uint8_t {
  FreeSpace,   ///< the paper's model
  TwoRay,
  LogDistance,
  Rayleigh,    ///< free space + Rayleigh small-scale fading
  Shadowing,   ///< free space + log-normal shadowing
};

struct ScenarioConfig {
  std::uint64_t seed = 1;

  // Topology.
  std::size_t nodes = 100;
  double width_m = 1000.0;
  double height_m = 1000.0;
  double range_m = 250.0;  ///< nominal transmission range (tx power is
                           ///< calibrated so the mean rx power hits the rx
                           ///< threshold exactly here)
  PropagationKind propagation = PropagationKind::FreeSpace;
  double pathloss_exponent = 3.0;  ///< LogDistance only
  double shadowing_sigma_db = 4.0; ///< Shadowing only

  phy::RadioParams radio{.tx_power_dbm = 15.0,
                         .rx_threshold_dbm = -64.0,
                         .cs_threshold_dbm = -71.0,
                         .noise_floor_dbm = -78.0,
                         .sinr_threshold_db = 10.0,
                         .interference_cutoff_dbm = -74.0,
                         .bitrate_bps = 1e6,
                         .preamble_s = 192e-6,
                         .frequency_hz = 914e6};
  mac::MacParams mac{};

  // Protocol under test.
  ProtocolKind protocol = ProtocolKind::Counter1Flooding;
  proto::RoutelessConfig routeless{};
  proto::SsafConfig ssaf{};
  proto::AodvConfig aodv{};
  proto::GradientConfig gradient{};
  proto::DsdvConfig dsdv{};
  proto::DsrConfig dsr{};

  // Traffic.
  std::size_t pairs = 1;
  bool bidirectional = false;  ///< Figures 3-4 use bidirectional CBR
  des::Time cbr_interval = 1.0;
  std::uint32_t payload_bytes = 512;
  des::Time traffic_start = 1.0;
  des::Time traffic_stop = 61.0;
  des::Time sim_end = 70.0;  ///< includes drain time after traffic stops
  /// Explicit (source, destination) pairs; when empty, `pairs` random pairs
  /// are drawn.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> explicit_pairs;
  /// Draw pairs that are mutually reachable and at least `min_pair_hops`
  /// apart in the deployed disk graph (partitioned pairs measure nothing).
  bool require_connected_pairs = false;
  int min_pair_hops = 1;
  /// Optional per-pair CBR interval override, parallel to explicit_pairs
  /// (0 or missing entry = use cbr_interval). Lets one flow be observed
  /// while another congests (Figure 2).
  std::vector<des::Time> explicit_pair_intervals;

  // Node failures (Figure 4).
  double failure_fraction = 0.0;
  des::Time failure_cycle_s = 10.0;

  bool trace_paths = false;  ///< record per-packet relay paths (Figure 2)

  /// Record packet-lifecycle / election / scheduler events into an
  /// obs::EventTracer ring owned by the SimInstance (exportable as a Chrome
  /// trace). Needs a build with -DRRNET_TRACE=ON to capture the hot-path
  /// events; a compiled-out build runs but records nothing.
  bool trace_events = false;
  std::size_t trace_capacity = 1u << 20;  ///< ring size, in records

  /// Optional run-health monitor (non-owning; see obs::RunHealthMonitor):
  /// sampled every ~262k events for throughput/RSS progress, wall-clock +
  /// RSS budget enforcement with graceful partial-result abort, and
  /// structured report.json output.
  obs::RunHealthMonitor* health_monitor = nullptr;

  // Mobility (random waypoint; traffic endpoints are pinned).
  bool mobility = false;
  double mobility_min_speed_mps = 1.0;
  double mobility_max_speed_mps = 5.0;
  des::Time mobility_pause_s = 2.0;

  // Energy accounting.
  bool track_energy = false;
  phy::EnergyProfile energy_profile{};
};

/// Headline metrics of one scenario run.
struct ScenarioResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double delivery_ratio = 0.0;
  double mean_delay_s = 0.0;       ///< over delivered packets
  double mean_hops = 0.0;          ///< over delivered packets
  std::uint64_t mac_packets = 0;   ///< all MAC transmissions incl. ACKs
  std::uint64_t channel_transmissions = 0;
  std::uint64_t events_executed = 0;
  double total_energy_j = 0.0;     ///< 0 unless track_energy
  double energy_per_delivered_j = 0.0;
  /// Full per-layer counter/gauge snapshot (obs::metric names). Counters
  /// sum and gauges max across replications, merged in index order, so
  /// aggregates are thread-count independent like every other field here.
  obs::MetricRegistry metrics;
};

/// Draw `pairs` random (source, destination) pairs with distinct endpoints.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
draw_pairs(std::size_t node_count, std::size_t pairs, des::Rng& rng);

}  // namespace rrnet::sim

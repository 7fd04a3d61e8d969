// Large-n regime: SSAF floods and routeless routing at n = 1000 / 5000 /
// 10000.
//
// The multi-hop radio-network literature the paper feeds into (leader
// election at O(D log n / log D) rounds) studies networks two orders of
// magnitude denser than the paper's 100–500-node figures. This sweep holds
// node density fixed while the terrain grows, so per-node neighborhood
// size — and with it the per-transmission event fan-out — stays constant
// while total event volume scales linearly. It exists to keep a tracked
// wall-clock/throughput baseline for the regime the ladder queue + fused
// broadcast work targets; delivery/delay columns double as a sanity check
// that the protocols still work at scale.
//
// Three rows per size: SSAF at the fig1 density (100 nodes per km^2, flood
// regime), RR at the fig3 density (125 nodes per km^2, unicast-with-
// arbiter regime) — the two protocols the paper contributes — and SSAF
// again under Rayleigh fading, which swaps the deterministic propagation
// model for the counter-based per-link rng (des::LinkRng).
//
// Flags: --quick (n = 1000 only), --nodes N (single custom size), --seed,
// --reps, --proto LABEL (single row family: ssaf / rr / ssaf_rayleigh),
// --rss-budget-mib M (exit non-zero when peak RSS exceeds M — enforced
// mid-run by the RunHealthMonitor, which aborts the offending row
// gracefully instead of letting it finish or OOM), --progress BOOL (live
// events/s + RSS lines every ~2s; defaults to on when stderr is a TTY).
#include <cmath>
#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "bench_common.hpp"
#include "obs/health.hpp"
#include "sim/builder.hpp"

namespace {

struct SweepRow {
  const char* label;
  rrnet::sim::ProtocolKind protocol;
  double nodes_per_km2;
  rrnet::sim::PropagationKind propagation =
      rrnet::sim::PropagationKind::FreeSpace;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rrnet;
  const util::Flags flags(argc, argv);

  bench::print_header(
      "Ablation — SSAF + RR scaling, n = 1000/5000/10000/100000",
      "engine scaling toward multi-hop radio-network regimes (Ghaffari & "
      "Haeupler; Czumaj & Davies)");

  // The n = 1,000,000 size runs the SSAF flood row only: it exists
  // to prove the million-node path (construction, CSR index, memory), not
  // to wait out an RR unicast run 3x as long.
  std::vector<std::size_t> sizes = {1000, 5000, 10000, 100000, 1000000};
  if (flags.get_bool("quick", false)) sizes = {1000};
  if (flags.has("nodes")) {
    sizes = {static_cast<std::size_t>(flags.get_int("nodes", 1000))};
  }
  const double rss_budget_mib =
      static_cast<double>(flags.get_int("rss-budget-mib", 0));
  const std::string proto_filter = flags.get_string("proto", "");
  // Live progress defaults to on for interactive runs only, so redirected
  // CI logs stay clean unless asked for (--progress true).
  const bool progress = flags.has("progress")
                            ? flags.get_bool("progress", true)
                            : isatty(fileno(stderr)) != 0;

  // fig1: 100 nodes / 1000x1000 m; fig3: 500 nodes / 2000x2000 m. The
  // Rayleigh row reruns the flood regime under stochastic per-link fading
  // and exercises the per-receiver rng path at large n.
  const SweepRow rows[] = {
      {"ssaf", sim::ProtocolKind::Ssaf, 100.0},
      {"rr", sim::ProtocolKind::Routeless, 125.0},
      {"ssaf_rayleigh", sim::ProtocolKind::Ssaf, 100.0,
       sim::PropagationKind::Rayleigh},
  };

  util::Table table({"nodes", "proto", "terrain_m", "events", "wall_s",
                     "events_per_s", "setup_ns_node", "rss_mib", "delivery",
                     "delay_s", "mac_pkts"});
  bool rss_budget_blown = false;
  for (const std::size_t nodes : sizes) {
    for (const SweepRow& row : rows) {
      if (!proto_filter.empty() && proto_filter != row.label) continue;
      if (nodes >= 1000000 && (row.protocol != sim::ProtocolKind::Ssaf ||
                               row.propagation !=
                                   sim::PropagationKind::FreeSpace)) {
        continue;
      }
      sim::ScenarioConfig config = row.protocol == sim::ProtocolKind::Ssaf
                                       ? bench::figure1_setup()
                                       : bench::figure3_setup();
      std::size_t replications = 1;
      bench::apply_flags(flags, config, replications);
      config.nodes = nodes;
      // Fixed density: terrain grows with n so neighborhood size holds.
      const double side =
          std::sqrt(static_cast<double>(nodes) / row.nodes_per_km2) * 1000.0;
      config.width_m = config.height_m = side;
      config.protocol = row.protocol;
      config.propagation = row.propagation;
      config.pairs = 10;
      config.cbr_interval = 2.0;
      config.traffic_start = 1.0;
      config.traffic_stop = 9.0;
      config.sim_end = 14.0;
      // One monitor per row: progress lines, mid-run RSS/budget samples
      // (~262k-event slices), and graceful partial-result abort when the
      // budget blows.
      char label[64];
      std::snprintf(label, sizeof(label), "n=%zu %s", nodes, row.label);
      obs::RunHealthMonitor::Config monitor_config;
      monitor_config.progress = progress;
      monitor_config.rss_budget_mib = rss_budget_mib;
      monitor_config.label = label;
      obs::RunHealthMonitor monitor(monitor_config);
      config.health_monitor = &monitor;

      // SimInstance (not run_replications): the scaling table needs the raw
      // event count and a wall clock unpolluted by worker-thread setup.
      // Construction is split out of the wall clock so the setup_ns_node
      // column tracks build cost (placement, CSR grid, arena carves)
      // separately from simulated throughput.
      const auto build0 = std::chrono::steady_clock::now();
      sim::SimInstance instance(config);
      const auto build1 = std::chrono::steady_clock::now();
      const double setup_ns_node =
          std::chrono::duration<double, std::nano>(build1 - build0).count() /
          static_cast<double>(nodes);
      instance.run();
      const sim::ScenarioResult result = instance.result();
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - build1)
                              .count();
      const double events = static_cast<double>(result.events_executed);
      const double rss_mib = monitor.peak_rss_mib();
      table.add_row({static_cast<double>(nodes), std::string(row.label), side,
                     events, wall, wall > 0.0 ? events / wall : 0.0,
                     setup_ns_node, rss_mib, result.delivery_ratio,
                     result.mean_delay_s,
                     static_cast<double>(result.mac_packets)});
      std::fprintf(stderr,
                   "  [n=%zu %s] %.1fs wall, %.0f events, %.0f ns/node "
                   "setup, %.0f MiB peak\n",
                   nodes, row.label, wall, events, setup_ns_node, rss_mib);
      if (monitor.budget_exceeded()) {
        std::fprintf(stderr, "  run aborted: %s (n=%zu %s)\n",
                     monitor.abort_reason().c_str(), nodes, row.label);
        rss_budget_blown = true;
      }
    }
  }
  bench::emit(table, "abl_large_n.csv");
  return rss_budget_blown ? 1 : 0;
}

// Extension experiment (§5): "the benefit ... is that it makes networks
// more adaptive to dynamic changes".
//
// Random-waypoint mobility at increasing speeds; Routeless Routing's
// per-packet elections track the moving topology for free, while AODV's
// cached next hops break and must be re-discovered.
//
// Flags: --quick, --nodes, --seed, --reps.
#include <algorithm>

#include "bench_common.hpp"
#include "sim/replication.hpp"

int main(int argc, char** argv) {
  using namespace rrnet;
  const util::Flags flags(argc, argv);
  sim::ScenarioConfig base = bench::figure3_setup();
  std::size_t replications = 2;
  bench::apply_flags(flags, base, replications);
  base.nodes = flags.has("nodes") ? base.nodes : 300;
  base.width_m = base.height_m = 1600.0;
  base.pairs = 4;
  base.mobility = true;
  base.cbr_interval = 2.0;

  bench::print_header("Extension — mobility sweep (random waypoint)",
                      "WMAN'05 §5: routeless forwarding adapts to dynamic "
                      "topologies; route caches go stale");

  std::vector<double> speeds = {0.5, 2, 5, 10, 20};
  if (flags.get_bool("quick", false)) speeds = {0.5, 10};

  util::Table table({"speed_mps", "protocol", "delivery", "delay_s",
                     "avg_hops", "mac_per_delivered"});
  for (const double speed : speeds) {
    for (const auto kind :
         {sim::ProtocolKind::Routeless, sim::ProtocolKind::Aodv}) {
      sim::ScenarioConfig config = base;
      config.protocol = kind;
      config.mobility_min_speed_mps = std::max(0.1, speed / 2.0);
      config.mobility_max_speed_mps = speed;
      const sim::Aggregated agg = sim::run_replications(config, replications);
      table.add_row({speed, std::string(sim::to_string(kind)),
                     agg.delivery_ratio.mean, agg.delay_s.mean, agg.hops.mean,
                     agg.mac_per_delivered.mean});
    }
    std::fprintf(stderr, "  [speed=%g m/s] done\n", speed);
  }
  bench::emit(table, "abl_mobility.csv");

  const std::size_t last = table.rows() - 2;
  const double rr_fast = std::get<double>(table.at(last, 2));
  const double aodv_fast = std::get<double>(table.at(last + 1, 2));
  std::printf("\nshape check: at the highest speed RR delivers %.3f vs AODV "
              "%.3f\n",
              rr_fast, aodv_fast);
  return 0;
}

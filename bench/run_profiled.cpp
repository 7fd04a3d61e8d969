// Profiled single-run driver: one serial scenario with the run-health
// monitor attached, emitting the structured run report (report.json,
// schema rrnet-run-report-v1) and optionally a Chrome trace of the run's
// event tracer (packet instants on pid 0, handler spans on pid 1; a build
// with -DRRNET_TRACE=ON is needed to capture them — a compiled-out build
// still writes a valid, empty trace).
//
// scripts/verify.sh drives this as its exporter smoke: both output files
// must parse with `python3 -m json.tool`. Exit status 2 means a budget
// aborted the run (the report still describes the partial result).
//
// Flags: --scenario fig1|fig3 (default fig1), --nodes N, --seed S,
// --sim-end T, --report PATH (default report.json), --trace PATH (no trace
// when empty), --progress BOOL, --wall-budget-s S, --rss-budget-mib M.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "sim/builder.hpp"

int main(int argc, char** argv) {
  using namespace rrnet;
  const util::Flags flags(argc, argv);

  const std::string scenario = flags.get_string("scenario", "fig1");
  sim::ScenarioConfig config = scenario == "fig3" ? bench::figure3_setup()
                                                  : bench::figure1_setup();
  std::size_t replications = 1;
  bench::apply_flags(flags, config, replications);
  config.sim_end = flags.get_double("sim-end", config.sim_end);
  config.traffic_stop = std::min(config.traffic_stop, config.sim_end);

  const std::string report_path = flags.get_string("report", "report.json");
  const std::string trace_path = flags.get_string("trace", "");
  config.trace_events = !trace_path.empty();

  obs::RunHealthMonitor::Config monitor_config;
  monitor_config.progress = flags.get_bool("progress", false);
  monitor_config.wall_budget_s = flags.get_double("wall-budget-s", 0.0);
  monitor_config.rss_budget_mib = flags.get_double("rss-budget-mib", 0.0);
  monitor_config.label = scenario;
  obs::RunHealthMonitor monitor(monitor_config);
  config.health_monitor = &monitor;

  sim::SimInstance sim(config);
  sim.run();
  const sim::ScenarioResult result = sim.result();

  std::printf("%s: %llu events in %.2fs (%.2fM ev/s), peak RSS %.0f MiB%s\n",
              scenario.c_str(),
              static_cast<unsigned long long>(result.events_executed),
              monitor.wall_s(),
              monitor.wall_s() > 0.0
                  ? static_cast<double>(result.events_executed) /
                        monitor.wall_s() * 1e-6
                  : 0.0,
              monitor.peak_rss_mib(),
              monitor.budget_exceeded() ? "  [ABORTED: partial result]" : "");
  if (monitor.budget_exceeded()) {
    std::printf("  abort reason: %s\n", monitor.abort_reason().c_str());
  }

  if (!monitor.write_report_json(report_path)) {
    std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", report_path.c_str());
  if (const obs::EventTracer* tracer = sim.tracer()) {
    if (!tracer->export_chrome_trace_file(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu records%s)\n", trace_path.c_str(),
                tracer->size(),
                obs::trace_compiled_in() ? "" : "; tracing compiled out");
  }
  return monitor.budget_exceeded() ? 2 : 0;
}

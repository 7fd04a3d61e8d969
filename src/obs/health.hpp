// Run-health monitor (observability pillar 3).
//
// Answers the question the metric registry and event tracer cannot: is the
// run healthy while it is still running? RunHealthMonitor samples
// wall-clock throughput (events/s) and process RSS (getrusage) every
// ~262k events, drives optional progress lines on stderr, enforces
// per-run wall-clock and RSS budgets with a graceful partial-result abort,
// and writes a structured report.json (peak RSS, throughput curve).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rrnet::obs {

/// Samples run health (events/s, RSS) while a scenario executes, enforces
/// wall/RSS budgets, and writes the per-run report.json. Attach one to a
/// run via ScenarioConfig::health_monitor (non-owning); SimInstance calls
/// checkpoint() between event slices and finish_run() at the end.
/// checkpoint() is cheap — one steady-clock read unless the sample period
/// elapsed.
class RunHealthMonitor {
 public:
  struct Config {
    double sample_period_s = 2.0;  ///< min wall clock between full samples
    double wall_budget_s = 0.0;    ///< abort when exceeded; 0 = unlimited
    double rss_budget_mib = 0.0;   ///< abort when exceeded; 0 = unlimited
    bool progress = false;         ///< print a progress line per sample
    std::string label;             ///< progress line prefix
  };
  /// One point of the throughput curve (events_per_s is the rate since the
  /// previous sample, i.e. the instantaneous slope, not the run average).
  struct Sample {
    double wall_s = 0.0;
    std::uint64_t events = 0;
    double events_per_s = 0.0;
    double rss_mib = 0.0;
  };

  RunHealthMonitor();  // default Config
  explicit RunHealthMonitor(Config config);

  /// Reset all state and start the run clock. checkpoint()/finish_run()
  /// self-start when this was not called explicitly.
  void begin_run();
  /// Report progress at a safe boundary. Returns true while the run is
  /// within budget; a false return asks the caller to stop gracefully and
  /// keep the partial result.
  bool checkpoint(std::uint64_t events_so_far);
  /// Record the final sample and close the run clock. Idempotent.
  void finish_run(std::uint64_t total_events);

  [[nodiscard]] bool budget_exceeded() const noexcept { return aborted_; }
  [[nodiscard]] const std::string& abort_reason() const noexcept {
    return abort_reason_;
  }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] double peak_rss_mib() const noexcept { return peak_rss_mib_; }
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  /// Write the structured run report ("rrnet-run-report-v1"): wall/events/
  /// throughput, peak RSS, budgets + abort state, and the throughput curve.
  /// Returns false when the file cannot be written.
  bool write_report_json(const std::string& path) const;

  /// Process peak RSS in MiB (getrusage; ru_maxrss is KiB on Linux).
  [[nodiscard]] static double process_rss_mib();

 private:
  void ensure_started();
  /// Full sample: RSS read, budget checks, optional progress line.
  bool sample_now(double wall, std::uint64_t events_so_far);

  Config config_;
  bool started_ = false;
  bool finished_ = false;
  bool aborted_ = false;
  std::string abort_reason_;
  std::chrono::steady_clock::time_point t0_{};
  double last_sample_wall_s_ = 0.0;
  std::uint64_t last_sample_events_ = 0;
  double peak_rss_mib_ = 0.0;
  double wall_s_ = 0.0;
  std::uint64_t events_ = 0;
  std::vector<Sample> samples_;
};

}  // namespace rrnet::obs

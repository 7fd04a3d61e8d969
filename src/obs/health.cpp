#include "obs/health.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace rrnet::obs {
namespace {

/// JSON-safe double: report files must survive `python3 -m json.tool`, so
/// NaN/inf (not valid JSON) collapse to 0.
double json_num(double v) noexcept { return std::isfinite(v) ? v : 0.0; }

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", json_num(v));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

RunHealthMonitor::RunHealthMonitor() : RunHealthMonitor(Config()) {}

RunHealthMonitor::RunHealthMonitor(Config config)
    : config_(std::move(config)) {}

double RunHealthMonitor::process_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunHealthMonitor::begin_run() {
  started_ = true;
  finished_ = false;
  aborted_ = false;
  abort_reason_.clear();
  t0_ = std::chrono::steady_clock::now();
  last_sample_wall_s_ = 0.0;
  last_sample_events_ = 0;
  peak_rss_mib_ = 0.0;
  wall_s_ = 0.0;
  events_ = 0;
  samples_.clear();
}

void RunHealthMonitor::ensure_started() {
  if (!started_) begin_run();
}

bool RunHealthMonitor::sample_now(double wall, std::uint64_t events_so_far) {
  const double dt = wall - last_sample_wall_s_;
  const double rate =
      dt > 0.0
          ? static_cast<double>(events_so_far - last_sample_events_) / dt
          : 0.0;
  const double rss = process_rss_mib();
  peak_rss_mib_ = std::max(peak_rss_mib_, rss);
  samples_.push_back(Sample{wall, events_so_far, rate, rss});
  last_sample_wall_s_ = wall;
  last_sample_events_ = events_so_far;
  if (config_.progress) {
    std::fprintf(stderr, "  [%s] %.1fs  %.2fM events  %.2fM ev/s  %.0f MiB\n",
                 config_.label.c_str(), wall,
                 static_cast<double>(events_so_far) * 1e-6, rate * 1e-6, rss);
  }
  if (!aborted_ && config_.rss_budget_mib > 0.0 &&
      rss > config_.rss_budget_mib) {
    aborted_ = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "rss %.0f MiB exceeded budget %.0f MiB",
                  rss, config_.rss_budget_mib);
    abort_reason_ = buf;
  }
  if (!aborted_ && config_.wall_budget_s > 0.0 &&
      wall > config_.wall_budget_s) {
    aborted_ = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "wall %.1fs exceeded budget %.1fs", wall,
                  config_.wall_budget_s);
    abort_reason_ = buf;
  }
  return !aborted_;
}

bool RunHealthMonitor::checkpoint(std::uint64_t events_so_far) {
  ensure_started();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
  events_ = events_so_far;
  wall_s_ = wall;
  // Wall budget is checked every checkpoint (the clock was already read);
  // RSS + progress only once per sample period.
  if (!aborted_ && config_.wall_budget_s > 0.0 &&
      wall > config_.wall_budget_s) {
    aborted_ = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "wall %.1fs exceeded budget %.1fs", wall,
                  config_.wall_budget_s);
    abort_reason_ = buf;
  }
  if (samples_.empty() ||
      wall - last_sample_wall_s_ >= config_.sample_period_s) {
    return sample_now(wall, events_so_far);
  }
  return !aborted_;
}

void RunHealthMonitor::finish_run(std::uint64_t total_events) {
  ensure_started();
  if (finished_) return;
  finished_ = true;
  wall_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  events_ = total_events;
  sample_now(wall_s_, total_events);
}

bool RunHealthMonitor::write_report_json(const std::string& path) const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"rrnet-run-report-v1\",\n  \"label\": ";
  append_json_string(out, config_.label);
  out += ",\n  \"wall_s\": ";
  append_double(out, wall_s_);
  out += ",\n  \"events\": ";
  append_u64(out, events_);
  out += ",\n  \"events_per_s\": ";
  append_double(out, wall_s_ > 0.0
                         ? static_cast<double>(events_) / wall_s_
                         : 0.0);
  out += ",\n  \"peak_rss_mib\": ";
  append_double(out, peak_rss_mib_);
  out += ",\n  \"aborted\": ";
  out += aborted_ ? "true" : "false";
  out += ",\n  \"abort_reason\": ";
  append_json_string(out, abort_reason_);
  out += ",\n  \"budgets\": {\"wall_s\": ";
  append_double(out, config_.wall_budget_s);
  out += ", \"rss_mib\": ";
  append_double(out, config_.rss_budget_mib);
  out += "}";
  out += ",\n  \"throughput\": [";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"wall_s\": ";
    append_double(out, s.wall_s);
    out += ", \"events\": ";
    append_u64(out, s.events);
    out += ", \"events_per_s\": ";
    append_double(out, s.events_per_s);
    out += ", \"rss_mib\": ";
    append_double(out, s.rss_mib);
    out += "}";
  }
  out += samples_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  return os.good();
}

}  // namespace rrnet::obs

// One measurement of one benchmark workload, printed to stdout as a single
// JSON object. perfbench/run.py starts one rrbench process per measurement,
// checks the outputs and reports medians; this file only builds, runs and
// times simulations and layer probes.
//
//   rrbench --workload W --seed S [--input K]   untraced measurement
//   rrbench --workload W --seed S --traced      spans around each call
//   rrbench --workload W --seed S --probes --queue-peak N
//   rrbench --workload sweep_fig4 --seed S --threads T
//
// Input 0 is the seed itself; input K > 0 is an independent stream derived
// from it, so that one run can average over several inputs.
//
// The workloads call only sim::SimInstance and sim::Sweep; the probes call
// geom::place_uniform, geom::SpatialGrid, phy::Channel and des::Scheduler.
// No scenario here sets shards > 1 or picks a scheduler queue backend.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "geom/placement.hpp"
#include "geom/spatial_grid.hpp"
#include "mac/frame.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace rrnet;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_since_origin() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

/// User + system CPU seconds of the whole process, every thread included.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

// ---------------------------------------------------------------- JSON out

class JsonOut {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  void key(std::string_view k) {
    separate();
    string(k);
    text_ += ':';
    first_ = true;
  }
  void value(double v) {
    separate();
    if (!std::isfinite(v)) {
      text_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    text_ += buf;
  }
  void value(std::uint64_t v) {
    separate();
    text_ += std::to_string(v);
  }
  void value(std::int64_t v) {
    separate();
    text_ += std::to_string(v);
  }
  void value(std::string_view s) {
    separate();
    string(s);
  }
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  void open(char c) {
    separate();
    text_ += c;
    first_ = true;
  }
  void close(char c) {
    text_ += c;
    first_ = false;
  }
  void separate() {
    if (!first_) text_ += ',';
    first_ = false;
  }
  void string(std::string_view s) {
    text_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        text_ += buf;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }

  std::string text_;
  bool first_ = true;
};

// ------------------------------------------------------------------- spans

/// In-memory span log (name, start, end, parent). Disabled logs record
/// nothing, so untraced measurements run the same code at no cost.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  int open(std::string name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), ns_since_origin(), 0, parent, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = ns_since_origin();
    stack_.pop_back();
  }
  void arg(int id, std::string name, double value) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(name),
                                                           value);
  }

  void write(JsonOut& out) const {
    out.key("spans");
    out.begin_array();
    for (const Span& s : spans_) {
      out.begin_object();
      out.field("name", std::string_view(s.name));
      out.field("start_ns", s.start_ns);
      out.field("end_ns", s.end_ns);
      out.field("parent", static_cast<std::int64_t>(s.parent));
      out.key("args");
      out.begin_object();
      for (const auto& [k, v] : s.args) out.field(k, v);
      out.end_object();
      out.end_object();
    }
    out.end_array();
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::vector<std::pair<std::string, double>> args;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Closes its span on scope exit, exceptions included, so the log stays a
/// tree when a simulation throws.
class Scope {
 public:
  Scope(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// --------------------------------------------------------------- workloads

/// n = 10^5 at the Fig. 1 density (100 nodes/km^2): SSAF floods from two
/// random sources. TTL 32 stops them short of the 31.6 km terrain's far
/// side, so destinations are rarely reached.
sim::ScenarioConfig flood_config(std::uint64_t seed) {
  sim::ScenarioConfig c = bench::figure1_setup();
  c.seed = seed;
  c.nodes = 100000;
  c.width_m = c.height_m =
      std::sqrt(static_cast<double>(c.nodes) / 100.0) * 1000.0;
  c.protocol = sim::ProtocolKind::Ssaf;
  c.pairs = 2;
  c.cbr_interval = 2.0;
  c.traffic_start = 1.0;
  c.traffic_stop = 4.0;
  c.sim_end = 9.0;
  return c;
}

/// The rightmost point of Fig. 4: Routeless Routing at 10% node failures.
sim::ScenarioConfig rr_config(std::uint64_t seed) {
  sim::ScenarioConfig c = bench::figure3_setup();
  c.seed = seed;
  c.protocol = sim::ProtocolKind::Routeless;
  c.pairs = 5;
  c.cbr_interval = 2.0;
  c.traffic_start = 1.0;
  c.traffic_stop = 41.0;
  c.sim_end = 50.0;
  c.failure_fraction = 0.10;
  return c;
}
constexpr std::size_t kRrReplications = 6;

/// The replications rr_fig4 runs one after another, in order.
std::vector<sim::ScenarioConfig> rr_jobs(std::uint64_t seed) {
  std::vector<sim::ScenarioConfig> jobs;
  for (std::size_t r = 0; r < kRrReplications; ++r) {
    sim::ScenarioConfig c = rr_config(seed);
    c.seed = des::derive_stream_seed(seed, r);
    jobs.push_back(c);
  }
  return jobs;
}

/// The Fig. 4 sweep, shortened: traffic 1-11 s, run to 20 s.
sim::ScenarioConfig sweep_base(std::uint64_t seed) {
  sim::ScenarioConfig c = bench::figure3_setup();
  c.seed = seed;
  c.pairs = 5;
  c.cbr_interval = 2.0;
  c.traffic_start = 1.0;
  c.traffic_stop = 11.0;
  c.sim_end = 20.0;
  return c;
}
const std::vector<double> kSweepFailurePct = {0.0, 5.0, 10.0};
constexpr std::size_t kSweepReplications = 2;
constexpr std::size_t kSweepThreads = 2;
const std::pair<const char*, sim::ProtocolKind> kSweepSeries[] = {
    {"aodv", sim::ProtocolKind::Aodv},
    {"rr", sim::ProtocolKind::Routeless},
};

void set_failure(sim::ScenarioConfig& c, double pct) {
  c.failure_fraction = pct / 100.0;
}

/// Every (series, x, replication) job Sweep::run executes, in table order,
/// with the seed run_replications derives for it.
std::vector<sim::ScenarioConfig> sweep_jobs(std::uint64_t seed) {
  std::vector<sim::ScenarioConfig> jobs;
  for (const auto& [label, protocol] : kSweepSeries) {
    for (const double x : kSweepFailurePct) {
      for (std::size_t r = 0; r < kSweepReplications; ++r) {
        sim::ScenarioConfig c = sweep_base(seed);
        c.protocol = protocol;
        set_failure(c, x);
        c.seed = des::derive_stream_seed(seed, r);
        jobs.push_back(c);
      }
    }
  }
  return jobs;
}

/// One simulation built, run, read and destroyed, as a record for run.py.
struct InstanceRecord {
  std::uint64_t seed = 0;
  std::size_t nodes = 0;
  double setup_s = 0.0;      ///< SimInstance constructor, wall
  double setup_cpu_s = 0.0;  ///< the same, process CPU
  /// Radios still locked onto a frame at the horizon: arrivals whose
  /// outcome (decoded or collided) comes after the run ends.
  std::uint64_t rx_in_progress = 0;
  std::string error;  ///< empty unless the simulation threw
  sim::ScenarioResult result;
};

InstanceRecord run_instance(const sim::ScenarioConfig& config, SpanLog& spans) {
  InstanceRecord rec;
  rec.seed = config.seed;
  rec.nodes = config.nodes;
  try {
    std::optional<sim::SimInstance> sim;
    {
      const Scope span(spans, "sim.build");
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = cpu_seconds();
      sim.emplace(config);
      rec.setup_cpu_s = cpu_seconds() - cpu0;
      rec.setup_s = seconds_between(t0, Clock::now());
    }
    {
      const Scope span(spans, "sim.run");
      if (spans.enabled()) {
        // One slice per simulated second; run_until(t) then run_until(t')
        // executes exactly the events one run_until(t') would.
        for (double t = 1.0;; t += 1.0) {
          const double horizon = std::min(t, config.sim_end);
          const std::uint64_t before = sim->scheduler().executed_count();
          const Scope slice(spans, "des.run_until");
          sim->run_until(horizon);
          spans.arg(slice.id(), "sim_time_s", horizon);
          spans.arg(slice.id(), "events",
                    static_cast<double>(sim->scheduler().executed_count() -
                                        before));
          if (horizon >= config.sim_end) break;
        }
      } else {
        sim->run();
      }
    }
    {
      const Scope span(spans, "obs.snapshot");
      rec.result = sim->result();
    }
    const phy::Channel& channel = sim->network().channel();
    for (std::uint32_t id = 0; id < channel.node_count(); ++id) {
      if (channel.transceiver(id).state() == phy::RadioState::Rx) {
        ++rec.rx_in_progress;
      }
    }
    {
      const Scope span(spans, "sim.teardown");
      sim.reset();
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
    if (rec.error.empty()) rec.error = "exception without message";
  }
  return rec;
}

void write_instance(JsonOut& out, const InstanceRecord& rec) {
  out.begin_object();
  out.field("seed", rec.seed);
  out.field("nodes", static_cast<std::uint64_t>(rec.nodes));
  out.field("setup_s", rec.setup_s);
  out.field("error", std::string_view(rec.error));
  out.field("sent", rec.result.sent);
  out.field("delivered", rec.result.delivered);
  out.field("events_executed", rec.result.events_executed);
  out.field("mac_packets", rec.result.mac_packets);
  out.field("rx_in_progress", rec.rx_in_progress);
  out.key("metrics");
  out.begin_object();
  for (const obs::Metric& m : rec.result.metrics.snapshot()) {
    out.field(m.name, m.value);
  }
  out.end_object();
  out.end_object();
}

/// Column names from the table's own CSV header (Table has no accessor).
std::vector<std::string> table_columns(const util::Table& table) {
  std::ostringstream csv;
  table.write_csv(csv);
  std::string header = csv.str().substr(0, csv.str().find('\n'));
  std::vector<std::string> names;
  std::size_t start = 0;
  for (std::size_t comma; (comma = header.find(',', start)) != std::string::npos;
       start = comma + 1) {
    names.push_back(header.substr(start, comma - start));
  }
  names.push_back(header.substr(start));
  return names;
}

void write_table(JsonOut& out, const util::Table& table) {
  out.key("table");
  out.begin_object();
  out.key("columns");
  out.begin_array();
  for (const std::string& name : table_columns(table)) out.value(name);
  out.end_array();
  out.key("rows");
  out.begin_array();
  for (std::size_t r = 0; r < table.rows(); ++r) {
    out.begin_array();
    for (std::size_t c = 0; c < table.columns(); ++c) {
      const util::Cell& cell = table.at(r, c);
      if (const auto* d = std::get_if<double>(&cell)) {
        out.value(*d);
      } else if (const auto* i = std::get_if<std::int64_t>(&cell)) {
        out.value(*i);
      } else {
        out.value(std::string_view(std::get<std::string>(cell)));
      }
    }
    out.end_array();
  }
  out.end_array();
  out.end_object();
}

/// One measurement: set-up samples, then wall and process CPU over the
/// run, which ends once results are read and every instance is destroyed.
struct Measurement {
  std::vector<double> setup_s;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::vector<InstanceRecord> instances;
  std::optional<util::Table> table;
};

Measurement measure_flood(std::uint64_t seed, SpanLog& spans) {
  Measurement m;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  InstanceRecord rec = run_instance(flood_config(seed), spans);
  // The run starts where the constructor ended.
  m.run_s = seconds_between(t0, Clock::now()) - rec.setup_s;
  m.cpu_s = cpu_seconds() - cpu0 - rec.setup_cpu_s;
  m.setup_s.push_back(rec.setup_s);
  m.instances.push_back(std::move(rec));
  return m;
}

constexpr std::size_t kSetupPasses = 20;

/// Set-up samples of a 500-node workload. Its instances are built inside
/// the timed run (Sweep::run builds them inside its pool), and one build
/// takes well under a millisecond, too little to time alone. So once the
/// run is over, every instance of the measurement is built again, pass
/// after pass; a sample is the constructor wall time of one whole pass.
std::vector<double> setup_passes(const std::vector<sim::ScenarioConfig>& jobs) {
  std::vector<double> samples;
  for (std::size_t p = 0; p < kSetupPasses; ++p) {
    double pass_s = 0.0;
    for (const sim::ScenarioConfig& job : jobs) {
      const Clock::time_point t0 = Clock::now();
      const sim::SimInstance sim(job);
      pass_s += seconds_between(t0, Clock::now());
    }
    samples.push_back(pass_s);
  }
  return samples;
}

Measurement measure_rr(std::uint64_t seed, SpanLog& spans) {
  Measurement m;
  const std::vector<sim::ScenarioConfig> jobs = rr_jobs(seed);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (const sim::ScenarioConfig& job : jobs) {
    m.instances.push_back(run_instance(job, spans));
  }
  m.run_s = seconds_between(t0, Clock::now());
  m.cpu_s = cpu_seconds() - cpu0;
  m.setup_s = setup_passes(jobs);
  return m;
}

util::Table run_sweep(std::uint64_t seed, std::size_t threads, SpanLog& spans) {
  sim::SweepSpec spec;
  spec.x_label = "failure_pct";
  spec.x_values = kSweepFailurePct;
  spec.replications = kSweepReplications;
  spec.threads = threads;
  sim::Sweep sweep(spec, sweep_base(seed));
  for (const auto& [label, protocol] : kSweepSeries) {
    const Scope span(spans, std::string("sim.series.") + label);
    sweep.run(label, protocol, set_failure);
  }
  const Scope span(spans, "util.table");
  return sweep.table();
}

Measurement measure_sweep(std::uint64_t seed, SpanLog& spans) {
  Measurement m;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  m.table = run_sweep(seed, kSweepThreads, spans);
  m.run_s = seconds_between(t0, Clock::now());
  m.cpu_s = cpu_seconds() - cpu0;
  const std::vector<sim::ScenarioConfig> jobs = sweep_jobs(seed);
  m.setup_s = setup_passes(jobs);
  if (spans.enabled()) {
    // The table carries only aggregates; the traced run replays each job
    // serially for its per-layer registry (and run.py cross-checks the
    // table's counter columns against these replays).
    const Scope span(spans, "bench.replay");
    for (const sim::ScenarioConfig& job : jobs) {
      m.instances.push_back(run_instance(job, spans));
    }
  }
  return m;
}

// ------------------------------------------------------------------ probes

struct HoldLoop {
  des::Scheduler scheduler;
  des::Rng rng{0};
  std::uint64_t remaining = 0;
};

/// Padded to a 24-byte capture, the size of the channel walker's.
struct HoldEvent {
  HoldLoop* loop;
  std::uint64_t padding[2];
  void operator()() const {
    if (loop->remaining == 0) return;
    --loop->remaining;
    loop->scheduler.schedule_in(loop->rng.exponential(1.0), *this);
  }
};

constexpr std::size_t kWalkTransmissions = 20000;
constexpr std::uint64_t kHoldOperations = 4000000;

/// Layer probes on the workload's own first instance: placement stream,
/// channel-sized index, receiver walk and a hold loop at `queue_peak`.
void run_probes(const sim::ScenarioConfig& config, std::size_t queue_peak,
                SpanLog& spans, JsonOut& out) {
  const geom::Terrain terrain(config.width_m, config.height_m);

  std::vector<geom::Vec2> positions;
  Clock::time_point t0 = Clock::now();
  {
    const Scope span(spans, "geom.place_uniform");
    des::Rng placement_rng = des::Rng(config.seed).fork("placement");
    positions = geom::place_uniform(terrain, config.nodes, placement_rng);
  }
  const double place_s = seconds_between(t0, Clock::now());

  auto model = sim::SimInstance::make_propagation(config);
  phy::RadioParams radio = config.radio;
  radio.tx_power_dbm =
      phy::tx_power_for_range(*model, config.range_m, radio.rx_threshold_dbm);
  des::Scheduler scheduler;
  phy::Channel channel(scheduler, terrain, std::move(model), radio, positions,
                       des::Rng(config.seed).fork("network"));
  const double range = channel.interference_range_m();

  t0 = Clock::now();
  std::optional<geom::SpatialGrid> grid;
  {
    const Scope span(spans, "geom.grid_build");
    grid.emplace(terrain, std::max(1.0, range), positions);
  }
  const double index_s = seconds_between(t0, Clock::now());

  std::vector<std::uint32_t> hits;
  t0 = Clock::now();
  {
    const Scope span(spans, "geom.query");
    for (const geom::Vec2& p : positions) grid->query(p, range, hits);
  }
  const double query_s = seconds_between(t0, Clock::now());

  // Receiver walk: one frame at a time, drained, no listeners attached.
  const auto n = static_cast<std::uint64_t>(config.nodes);
  t0 = Clock::now();
  {
    const Scope span(spans, "phy.walk");
    for (std::uint64_t i = 0; i < kWalkTransmissions; ++i) {
      const auto sender = static_cast<std::uint32_t>((i * 7919) % n);
      phy::Airframe frame;
      frame.sender = sender;
      frame.id = channel.next_frame_id(sender);
      frame.size_bytes = config.payload_bytes + mac::kMacHeaderBytes;
      channel.transmit(frame);
      scheduler.run();
    }
  }
  const double walk_s = seconds_between(t0, Clock::now());
  std::uint64_t arrivals = 0;
  for (std::uint32_t id = 0; id < config.nodes; ++id) {
    arrivals += channel.transceiver(id).stats().signals_arrived;
  }

  // Hold model: the queue stays at the workload's peak depth while each
  // executed event schedules one successor.
  auto hold = std::make_unique<HoldLoop>();
  hold->rng = des::Rng(config.seed).fork("hold");
  hold->remaining = kHoldOperations;
  for (std::size_t i = 0; i < std::max<std::size_t>(queue_peak, 1); ++i) {
    hold->scheduler.schedule_in(hold->rng.exponential(1.0),
                                HoldEvent{hold.get(), {}});
  }
  t0 = Clock::now();
  {
    const Scope span(spans, "des.hold");
    hold->scheduler.run();
  }
  const double hold_s = seconds_between(t0, Clock::now());
  const std::uint64_t hold_events = hold->scheduler.executed_count();

  out.key("probes");
  out.begin_object();
  out.field("place_s", place_s);
  out.field("index_s", index_s);
  out.field("query_ns", query_s * 1e9 / static_cast<double>(n));
  out.field("walk_ns_per_signal",
            arrivals > 0 ? walk_s * 1e9 / static_cast<double>(arrivals) : 0.0);
  out.field("hold_ns", hold_s * 1e9 / static_cast<double>(hold_events));
  out.end_object();
}

sim::ScenarioConfig first_instance_config(const std::string& workload,
                                          std::uint64_t seed) {
  if (workload == "flood_n100k") return flood_config(seed);
  if (workload == "rr_fig4") return rr_jobs(seed).front();
  return sweep_jobs(seed).front();
}

int usage(const char* why) {
  std::fprintf(stderr, "rrbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::string workload = flags.get_string("workload", "");
  const auto base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto input = static_cast<std::uint64_t>(flags.get_int("input", 0));
  const std::uint64_t seed =
      input == 0 ? base_seed : des::Rng(base_seed).fork("input", input).seed();
  if (workload != "flood_n100k" && workload != "rr_fig4" &&
      workload != "sweep_fig4") {
    return usage("--workload must be flood_n100k, rr_fig4 or sweep_fig4");
  }

  JsonOut out;
  out.begin_object();
  out.field("workload", std::string_view(workload));
  out.field("seed", seed);
  out.field("input", input);

  if (flags.has("threads")) {
    // Table only, at a chosen pool size: the thread-count independence
    // check behind the pinned sweep table.
    if (workload != "sweep_fig4") return usage("--threads needs sweep_fig4");
    SpanLog no_spans(false);
    write_table(out, run_sweep(
                         seed,
                         static_cast<std::size_t>(flags.get_int("threads", 1)),
                         no_spans));
  } else if (flags.get_bool("probes", false)) {
    SpanLog spans(true);
    run_probes(first_instance_config(workload, seed),
               static_cast<std::size_t>(flags.get_int("queue-peak", 1)), spans,
               out);
    spans.write(out);
  } else {
    SpanLog spans(flags.get_bool("traced", false));
    Measurement m;
    if (workload == "flood_n100k") {
      m = measure_flood(seed, spans);
    } else if (workload == "rr_fig4") {
      m = measure_rr(seed, spans);
    } else {
      m = measure_sweep(seed, spans);
    }
    out.key("setup_s");
    out.begin_array();
    for (const double s : m.setup_s) out.value(s);
    out.end_array();
    out.field("run_s", m.run_s);
    out.field("cpu_s", m.cpu_s);
    out.field("peak_rss_kib", static_cast<std::int64_t>(peak_rss_kib()));
    out.key("instances");
    out.begin_array();
    for (const InstanceRecord& rec : m.instances) write_instance(out, rec);
    out.end_array();
    if (m.table) write_table(out, *m.table);
    spans.write(out);
  }
  out.end_object();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

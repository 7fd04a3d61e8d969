// Observability layer: metric registry semantics, histogram flattening,
// tracer ring mechanics, exporter formats, and the end-to-end fig3-style
// capture (metrics invariants + Perfetto-loadable trace file).
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "obs/health.hpp"
#include "mac/csma.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/builder.hpp"
#include "sim/replication.hpp"
#include "sim/runner.hpp"

namespace rrnet {
namespace {

namespace m = obs::metric;

TEST(MetricRegistry, CountersAccumulateGaugesMax) {
  obs::MetricRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.add("a.count", 2);
  reg.add("a.count", 3);
  reg.set_max("a.high_water", 7);
  reg.set_max("a.high_water", 4);  // lower value must not shrink a gauge
  EXPECT_EQ(reg.value("a.count"), 5u);
  EXPECT_EQ(reg.value("a.high_water"), 7u);
  EXPECT_EQ(reg.value("absent"), 0u);
  EXPECT_TRUE(reg.contains("a.count"));
  EXPECT_FALSE(reg.contains("absent"));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, MergeSumsCountersAndMaxesGauges) {
  obs::MetricRegistry a;
  a.add("c", 10);
  a.set_max("g", 5);
  obs::MetricRegistry b;
  b.add("c", 4);
  b.set_max("g", 9);
  b.add("only_b", 1);
  a.merge(b);
  EXPECT_EQ(a.value("c"), 14u);
  EXPECT_EQ(a.value("g"), 9u);
  EXPECT_EQ(a.value("only_b"), 1u);
}

TEST(MetricRegistry, SnapshotIsNameOrdered) {
  obs::MetricRegistry reg;
  reg.add("z.last", 1);
  reg.add("a.first", 1);
  reg.set_max("m.middle", 1);
  const std::vector<obs::Metric> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[1].kind, obs::MetricKind::Gauge);
}

TEST(Histogram, ObserveMergeQuantile) {
  obs::Histogram h;
  EXPECT_TRUE(h.empty());
  for (int i = 0; i < 90; ++i) h.observe(1);
  for (int i = 0; i < 10; ++i) h.observe(100);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u + 1000u);
  // p50 sits in the zeros-and-ones bucket; p99 must reach the 100s bucket
  // (upper bound 128, power-of-two resolution).
  EXPECT_LE(h.quantile_bound(0.5), 1u);
  EXPECT_GE(h.quantile_bound(0.99), 100u);

  obs::Histogram other;
  other.observe(100);
  h.merge(other);
  EXPECT_EQ(h.count(), 101u);

  obs::MetricRegistry reg;
  h.snapshot_into(reg, "mac.backoff_slots");
  EXPECT_EQ(reg.value("mac.backoff_slots.count"), 101u);
  EXPECT_EQ(reg.value("mac.backoff_slots.sum"), 1190u);
  EXPECT_TRUE(reg.contains("mac.backoff_slots.p50"));
  EXPECT_TRUE(reg.contains("mac.backoff_slots.p99"));
}

TEST(EventTracer, RingWrapsKeepingNewestRecords) {
  obs::EventTracer tracer(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  // Disabled by default: records are refused.
  tracer.record(obs::EventKind::NetSend, 0.0, 1, 1);
  EXPECT_EQ(tracer.recorded(), 0u);

  tracer.set_enabled(true);
  for (std::uint64_t i = 0; i < 6; ++i) {
    tracer.record(obs::EventKind::NetSend, static_cast<double>(i), 1, i);
  }
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<obs::TraceRecord> snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first, and the two oldest records (ids 0, 1) were overwritten.
  EXPECT_EQ(snap.front().id, 2u);
  EXPECT_EQ(snap.back().id, 5u);

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, ThreadTracerInstallRestore) {
  obs::EventTracer* before = obs::thread_tracer();
  obs::EventTracer tracer(8);
  obs::EventTracer* prev = obs::set_thread_tracer(&tracer);
  EXPECT_EQ(prev, before);
  EXPECT_EQ(obs::thread_tracer(), &tracer);
  obs::set_thread_tracer(prev);
  EXPECT_EQ(obs::thread_tracer(), before);
}

TEST(EventTracer, ChromeExportShapesInstantsAndSpans) {
  obs::EventTracer tracer(8);
  tracer.set_enabled(true);
  tracer.record(obs::EventKind::PhyRxDecoded, 0.25, 7, 99);
  tracer.record(obs::EventKind::HandlerSpan, 0.5, obs::kNoTraceNode,
                /*wall ns=*/1500);
  tracer.record(obs::EventKind::PhyDrop, 0.75, 4, 100,
                static_cast<std::uint16_t>(obs::DropReason::Collision));
  std::ostringstream os;
  ASSERT_TRUE(tracer.export_chrome_trace(os));
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);  // starts with
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  // Simulated seconds scale to microseconds on the trace timeline.
  EXPECT_NE(text.find("\"ts\":250000"), std::string::npos);
  // Packet instants land on pid 0 with tid = node id.
  EXPECT_NE(text.find("\"tid\":7"), std::string::npos);
  // A drop's instant is named after its reason.
  EXPECT_NE(text.find("\"name\":\"phy_drop(collision)\""),
            std::string::npos);
}

sim::ScenarioConfig fig3_style_config() {
  sim::ScenarioConfig config;
  config.seed = 11;
  config.nodes = 30;
  config.width_m = 600.0;
  config.height_m = 600.0;
  config.range_m = 250.0;
  config.protocol = sim::ProtocolKind::Routeless;
  config.pairs = 2;
  config.cbr_interval = 1.0;
  config.payload_bytes = 128;
  config.traffic_start = 1.0;
  config.traffic_stop = 8.0;
  config.sim_end = 15.0;
  return config;
}

TEST(ObsIntegration, ScenarioMetricsSatisfyPhyInvariant) {
  const sim::ScenarioResult r = sim::run_scenario(fig3_style_config());
  const obs::MetricRegistry& reg = r.metrics;
  EXPECT_FALSE(reg.empty());

  // Conservation at the PHY: every signal arrival is decoded or accounted to
  // exactly one drop reason — including decodes aborted by a radio turning
  // off — so rx + drops must equal potential receptions exactly, with zero
  // unexplained arrivals.
  const std::uint64_t arrived = reg.value(m::kPhySignalsArrived);
  const std::uint64_t accounted =
      reg.value(m::kPhyRxDecoded) + reg.value(m::kPhyDropCollision) +
      reg.value(m::kPhyDropRxWhileBusy) +
      reg.value(m::kPhyDropBelowSensitivity) +
      reg.value(m::kPhyDropWhileOff) + reg.value(m::kPhyDropAbortedOff);
  EXPECT_GT(arrived, 0u);
  EXPECT_EQ(accounted, arrived);

  // Cross-layer consistency with the classic ScenarioResult fields.
  EXPECT_EQ(reg.value(m::kDesEventsExecuted), r.events_executed);
  // net.delivered counts every app handoff (duplicate copies included);
  // FlowStats dedups by uid, so it can only be lower.
  EXPECT_GE(reg.value(m::kNetDelivered), r.delivered);
  EXPECT_GT(reg.value(m::kNetTxData), 0u);
  EXPECT_GT(reg.value(m::kNetTxControl), 0u);  // routeless sends acks
  EXPECT_GT(reg.value(m::kElectionArmed), 0u);
  EXPECT_GE(reg.value(m::kElectionArmed), reg.value(m::kElectionWon));
  EXPECT_GT(reg.value(m::kDesHeapHighWater), 0u);
  EXPECT_GT(reg.value(m::kPoolPacketAllocs), 0u);
}

/// Arrivals with a settled outcome: decoded or one of the five drop reasons.
std::uint64_t phy_settled(const obs::MetricRegistry& reg) {
  return reg.value(m::kPhyRxDecoded) + reg.value(m::kPhyDropCollision) +
         reg.value(m::kPhyDropRxWhileBusy) +
         reg.value(m::kPhyDropBelowSensitivity) +
         reg.value(m::kPhyDropWhileOff) + reg.value(m::kPhyDropAbortedOff);
}

// Same conservation law under the Figure-4 failure model: radios cycling
// off mid-decode must account those receptions as aborted drops, not lose
// them (phy.drop_aborted_off is the counter the equality rests on).
TEST(ObsIntegration, PhyInvariantHoldsExactlyUnderRadioFailures) {
  sim::ScenarioConfig config = fig3_style_config();
  config.failure_fraction = 0.5;
  config.failure_cycle_s = 0.5;  // flip radios often enough to cut decodes
  const sim::ScenarioResult r = sim::run_scenario(config);
  const obs::MetricRegistry& reg = r.metrics;
  const std::uint64_t arrived = reg.value(m::kPhySignalsArrived);
  EXPECT_GT(arrived, 0u);
  EXPECT_EQ(phy_settled(reg), arrived);
  EXPECT_GT(reg.value(m::kPhyDropWhileOff), 0u);

  // Stopped mid-run, a radio locked onto a frame holds one arrival whose
  // outcome comes later: the law then counts radios in Rx as pending.
  // run_until(t) in steps executes exactly what one run_until would.
  sim::SimInstance sim(config);
  const phy::Channel& channel = sim.network().channel();
  std::uint64_t receiving = 0;
  for (des::Time t = config.traffic_start; t < config.sim_end && receiving == 0;
       t += 1e-4) {
    sim.run_until(t);
    for (std::uint32_t id = 0; id < channel.node_count(); ++id) {
      if (channel.transceiver(id).state() == phy::RadioState::Rx) ++receiving;
    }
  }
  ASSERT_GT(receiving, 0u);
  const obs::MetricRegistry mid = sim.result().metrics;
  EXPECT_EQ(phy_settled(mid) + receiving, mid.value(m::kPhySignalsArrived));
}

// Configs that between them drive every per-node counter the snapshot sums
// (except the few named below): Routeless under radio failures, and AODV
// with RTS/CTS, a two-frame MAC queue and failures.
std::vector<sim::ScenarioConfig> snapshot_configs() {
  sim::ScenarioConfig routeless = fig3_style_config();
  routeless.failure_fraction = 0.5;
  routeless.failure_cycle_s = 0.5;
  sim::ScenarioConfig aodv = fig3_style_config();
  aodv.protocol = sim::ProtocolKind::Aodv;
  aodv.mac.rts_cts = true;
  aodv.mac.queue_capacity = 2;
  aodv.pairs = 4;
  aodv.cbr_interval = 0.05;
  aodv.failure_fraction = 0.3;
  aodv.failure_cycle_s = 1.0;
  return {routeless, aodv};
}

// Network::snapshot_metrics adds up every node's stats and registers each
// metric once. Every phy, mac and net.tx_* / net.delivered entry must equal
// the sum over nodes, in id order, of that field read through the public
// accessors (the queue high-water is the max, the backoff-slot entries come
// from the merged histogram), and the names must be those that registering
// node by node produced.
TEST(ObsIntegration, OnePassSnapshotEqualsPerNodeSums) {
  // The names that registering node by node produced for these configs;
  // Routeless adds its arbiter's.
  const std::vector<std::string_view> common = {
      "des.events_executed", "des.events_inline", "des.heap_high_water",
      "election.armed", "election.cancelled_ack",
      "election.cancelled_duplicate", "election.cancelled_superseded",
      "election.won", "mac.ack_tx", "mac.backoff_slots.count",
      "mac.backoff_slots.p50", "mac.backoff_slots.p99", "mac.backoff_slots.sum",
      "mac.backoffs", "mac.cts_timeouts", "mac.cts_tx", "mac.data_tx",
      "mac.nav_deferrals", "mac.queue_drops", "mac.queue_high_water",
      "mac.retries", "mac.rts_tx", "mac.tx_dropped_radio_off",
      "mac.unicast_failures", "net.delivered", "net.dup_cache_evictions",
      "net.dup_cache_hits", "net.tx_control", "net.tx_data", "phy.deliveries",
      "phy.drop_aborted_off", "phy.drop_below_sensitivity",
      "phy.drop_collision", "phy.drop_rx_while_busy", "phy.drop_while_off",
      "phy.rx_decoded", "phy.signals_arrived", "phy.transmissions",
      "phy.tx_dropped_busy", "phy.tx_dropped_off", "phy.tx_frames",
      "pool.object_allocs", "pool.object_heap_allocs",
      "pool.object_in_use_high_water", "pool.packet_buffer_allocs",
      "pool.packet_buffer_heap_allocs", "pool.packet_buffer_in_use_high_water",
  };
  std::vector<std::string_view> routeless = {
      "arbiter.gave_up", "arbiter.relays_heard", "arbiter.retransmits",
      "arbiter.watches"};
  routeless.insert(routeless.end(), common.begin(), common.end());
  const std::vector<std::vector<std::string_view>> pinned_names = {routeless,
                                                                   common};
  // Per-node fields no config here reaches: the MAC checks its radio
  // before it transmits and counts mac.tx_dropped_radio_off instead.
  const std::vector<std::string_view> unreached = {m::kPhyTxDroppedOff,
                                                   m::kPhyTxDroppedBusy};
  const std::vector<sim::ScenarioConfig> configs = snapshot_configs();
  ASSERT_EQ(configs.size(), pinned_names.size());
  std::map<std::string, std::uint64_t, std::less<>> largest_sum;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE(c);
    sim::SimInstance sim(configs[c]);
    sim.run();
    const obs::MetricRegistry reg = sim.result().metrics;
    const net::Network& network = sim.network();

    std::map<std::string, std::uint64_t, std::less<>> want;
    const auto sum = [&want](std::string_view name, std::uint64_t value) {
      want[std::string(name)] += value;
    };
    std::uint64_t queue_high_water = 0;
    obs::Histogram backoff_slots;
    for (std::uint32_t id = 0; id < network.size(); ++id) {
      const phy::TransceiverStats& phy =
          network.channel().transceiver(id).stats();
      sum(m::kPhyTxFrames, phy.frames_sent);
      sum(m::kPhySignalsArrived, phy.signals_arrived);
      sum(m::kPhyRxDecoded, phy.frames_decoded);
      sum(m::kPhyDropCollision, phy.frames_collided);
      sum(m::kPhyDropRxWhileBusy, phy.frames_missed_busy);
      sum(m::kPhyDropBelowSensitivity, phy.frames_below_threshold);
      sum(m::kPhyDropWhileOff, phy.frames_while_off);
      sum(m::kPhyDropAbortedOff, phy.frames_aborted_off);
      sum(m::kPhyTxDroppedOff, phy.tx_dropped_off);
      sum(m::kPhyTxDroppedBusy, phy.tx_dropped_busy);

      const mac::CsmaMac& csma = network.node(id).mac();
      const mac::MacStats& mac = csma.stats();
      sum(m::kMacDataTx, mac.data_tx);
      sum(m::kMacAckTx, mac.ack_tx);
      sum(m::kMacRtsTx, mac.rts_tx);
      sum(m::kMacCtsTx, mac.cts_tx);
      sum(m::kMacBackoffs, mac.backoffs);
      sum(m::kMacRetries, mac.retries);
      sum(m::kMacCtsTimeouts, mac.cts_timeouts);
      sum(m::kMacNavDeferrals, mac.nav_deferrals);
      sum(m::kMacUnicastFailures, mac.unicast_failures);
      sum(m::kMacQueueDrops, mac.queue_drops);
      sum(m::kMacTxDroppedRadioOff, mac.tx_dropped_radio_off);
      queue_high_water = std::max<std::uint64_t>(queue_high_water,
                                                 csma.queue_high_water());
      backoff_slots.merge(mac.backoff_slots);

      const net::NodeStats& net = network.node(id).stats();
      sum(m::kNetTxData, net.data_tx);
      sum(m::kNetTxControl, net.control_tx);
      sum(m::kNetDelivered, net.delivered);
    }
    for (const auto& [name, value] : want) {
      largest_sum[name] = std::max(largest_sum[name], value);
    }
    want[std::string(m::kMacQueueHighWater)] = queue_high_water;
    want[std::string(m::kPhyTransmissions)] =
        network.channel().stats().transmissions;
    want[std::string(m::kPhyDeliveries)] = network.channel().stats().deliveries;
    ASSERT_FALSE(backoff_slots.empty());
    obs::MetricRegistry slots;
    backoff_slots.snapshot_into(slots, m::kMacBackoffSlots);
    for (const obs::Metric& entry : slots.snapshot()) {
      want[entry.name] = entry.value;
    }

    std::vector<std::string> names;
    std::size_t checked = 0;
    for (const obs::Metric& entry : reg.snapshot()) {
      names.push_back(entry.name);
      const std::string_view name = entry.name;
      if (!name.starts_with("phy.") && !name.starts_with("mac.") &&
          !name.starts_with("net.tx_") && name != m::kNetDelivered) {
        continue;
      }
      const auto it = want.find(name);
      ASSERT_NE(it, want.end()) << name;
      EXPECT_EQ(entry.value, it->second) << name;
      ++checked;
    }
    EXPECT_EQ(checked, want.size());
    EXPECT_EQ(names, std::vector<std::string>(pinned_names[c].begin(),
                                              pinned_names[c].end()));
  }
  for (const auto& [name, value] : largest_sum) {
    const bool expect_reached =
        std::find(unreached.begin(), unreached.end(), name) == unreached.end();
    EXPECT_EQ(value > 0, expect_reached) << name;
  }
}

TEST(ObsIntegration, ScenarioMetricsDeterministicAcrossRuns) {
  const sim::ScenarioResult a = sim::run_scenario(fig3_style_config());
  const sim::ScenarioResult b = sim::run_scenario(fig3_style_config());
  const std::vector<obs::Metric> sa = a.metrics.snapshot();
  const std::vector<obs::Metric> sb = b.metrics.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name);
    EXPECT_EQ(sa[i].value, sb[i].value) << sa[i].name;
  }
}

TEST(ObsIntegration, ReplicationMergeIsThreadCountIndependent) {
  const sim::ScenarioConfig base = fig3_style_config();
  const sim::Aggregated serial = sim::run_replications(base, 4, /*threads=*/1);
  const sim::Aggregated parallel =
      sim::run_replications(base, 4, /*threads=*/4);
  const std::vector<obs::Metric> ss = serial.metrics.snapshot();
  const std::vector<obs::Metric> ps = parallel.metrics.snapshot();
  ASSERT_EQ(ss.size(), ps.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    EXPECT_EQ(ss[i].name, ps[i].name);
    EXPECT_EQ(ss[i].value, ps[i].value) << ss[i].name;
  }
}

/// Minimal JSON syntax check (RFC 8259 grammar, no semantic limits): true
/// when `text` is exactly one JSON value plus surrounding whitespace.
class JsonSyntax {
 public:
  static bool valid(std::string_view text) {
    JsonSyntax p{text};
    return p.value() && (p.skip_ws(), p.pos_ == text.size());
  }

 private:
  explicit JsonSyntax(std::string_view text) : text_(text) {}
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) return false;
      pos_ += text_[pos_] == '\\' ? 2 : 1;
    }
    return pos_++ < text_.size();
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > digits && pos_ > start;
  }
  template <typename Item>
  bool sequence(char close, Item item) {
    if (eat(close)) return true;
    do {
      if (!item()) return false;
    } while (eat(','));
    return eat(close);
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        ++pos_;
        return sequence('}', [&] { return string() && eat(':') && value(); });
      case '[':
        ++pos_;
        return sequence(']', [&] { return value(); });
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(JsonSyntax, AcceptsValuesAndRejectsBrokenDocuments) {
  EXPECT_TRUE(JsonSyntax::valid(R"({"a": [1, -2.5e3, true, null], "b": "x\"y"})"));
  EXPECT_TRUE(JsonSyntax::valid(" [] "));
  EXPECT_FALSE(JsonSyntax::valid(R"({"a": 1,})"));
  EXPECT_FALSE(JsonSyntax::valid(R"({"a": nan})"));
  EXPECT_FALSE(JsonSyntax::valid(R"({"a": 1} {})"));
  EXPECT_FALSE(JsonSyntax::valid(R"(["unterminated)"));
}

// The serial monitoring path: SimInstance::run_until's slice loop is the
// monitor's only link to a scenario. Attaching a monitor (sampling at every
// checkpoint, no budget) must not move a single metric, must record a
// throughput curve, and must write a report that parses.
TEST(ObsIntegration, HealthMonitorLeavesSerialRunUnchanged) {
  sim::ScenarioConfig config = fig3_style_config();
  config.failure_fraction = 0.1;
  const sim::ScenarioResult plain = sim::run_scenario(config);

  obs::RunHealthMonitor::Config monitor_config;
  monitor_config.sample_period_s = 0.0;
  obs::RunHealthMonitor monitor(monitor_config);
  config.health_monitor = &monitor;
  const sim::ScenarioResult monitored = sim::run_scenario(config);

  const std::vector<obs::Metric> a = plain.metrics.snapshot();
  const std::vector<obs::Metric> b = monitored.metrics.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
  }
  EXPECT_FALSE(monitor.budget_exceeded());
  EXPECT_GE(monitor.samples().size(), 2u);
  EXPECT_EQ(monitor.events(), monitored.events_executed);

  const std::string path = ::testing::TempDir() + "rrnet_serial_report.json";
  ASSERT_TRUE(monitor.write_report_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonSyntax::valid(buffer.str())) << buffer.str();
  std::remove(path.c_str());
}

TEST(ObsIntegration, TraceCaptureExportsChromeTrace) {
  sim::ScenarioConfig config = fig3_style_config();
  config.trace_events = true;
  config.trace_capacity = 1u << 16;
  sim::SimInstance sim(config);
  ASSERT_NE(sim.tracer(), nullptr);
  EXPECT_TRUE(sim.tracer()->enabled());
  sim.run();
  const sim::ScenarioResult r = sim.result();
  EXPECT_GT(r.events_executed, 0u);

  if (obs::trace_compiled_in()) {
    // With RRNET_TRACE compiled in, a fig3-style run must produce a rich
    // packet-lifecycle trace.
    EXPECT_GT(sim.tracer()->recorded(), 0u);
    bool saw_send = false;
    bool saw_decode = false;
    for (const obs::TraceRecord& rec : sim.tracer()->snapshot()) {
      const auto kind = static_cast<obs::EventKind>(rec.kind);
      saw_send = saw_send || kind == obs::EventKind::NetSend;
      saw_decode = saw_decode || kind == obs::EventKind::PhyRxDecoded;
    }
    EXPECT_TRUE(saw_send);
    EXPECT_TRUE(saw_decode);
  } else {
    // Compiled out: the ring exists but no call site feeds it.
    EXPECT_EQ(sim.tracer()->recorded(), 0u);
  }

  // The exporter must produce a Perfetto-loadable file in either build.
  const std::string path = ::testing::TempDir() + "rrnet_obs_trace.json";
  ASSERT_TRUE(sim.tracer()->export_chrome_trace_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string head;
  std::getline(in, head);
  EXPECT_EQ(head, "{\"traceEvents\":[");
  std::remove(path.c_str());
}

TEST(RunHealthMonitor, WritesParseableReportAndEnforcesRssBudget) {
  obs::RunHealthMonitor::Config config;
  config.rss_budget_mib = 0.001;  // any live process exceeds this
  config.sample_period_s = 0.0;   // sample on every checkpoint
  obs::RunHealthMonitor monitor(config);
  monitor.begin_run();
  EXPECT_FALSE(monitor.checkpoint(1000));
  EXPECT_TRUE(monitor.budget_exceeded());
  EXPECT_NE(monitor.abort_reason().find("rss"), std::string::npos);
  monitor.finish_run(1000);
  EXPECT_EQ(monitor.events(), 1000u);
  EXPECT_GT(monitor.peak_rss_mib(), 0.0);
  EXPECT_GE(monitor.samples().size(), 2u);

  const std::string path = ::testing::TempDir() + "rrnet_run_report.json";
  ASSERT_TRUE(monitor.write_report_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"schema\": \"rrnet-run-report-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"aborted\": true"), std::string::npos);
  EXPECT_NE(json.find("\"throughput\": ["), std::string::npos);
  // No NaN anywhere.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rrnet

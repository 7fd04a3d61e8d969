// Engine benchmark suite with machine-readable output.
//
// The suite owns its timing loop so it can interpose the global allocator
// and report allocations/event alongside events/sec and ns/event. It emits
// BENCH_engine.json so successive PRs can be gated on the perf trajectory
// (see bench_results/ for checked-in baselines).
//
// Usage: run_bench_suite [output.json]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "des/quad_heap.hpp"
#include "des/rng.hpp"
#include "des/scheduler.hpp"
#include "des/timer.hpp"
#include "geom/placement.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "sim/runner.hpp"
#include "util/pool.hpp"

// ---------------------------------------------------------------------------
// Allocation interposer: every global new/delete in this binary bumps a
// counter, so a measured region can report exact allocations/event.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Kept out of line: once inlined into a caller, GCC pairs the free() with
// the caller's new-expression and reports -Wmismatched-new-delete, although
// the operator new replacements above allocate with malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace rrnet;
using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  std::uint64_t events = 0;  ///< unit of work (events, timers, frames, ...)
  double seconds = 0.0;
  double best_round_ns = 0.0;  ///< fastest round's ns/event (noise floor)
  std::uint64_t allocations = 0;
  std::uint64_t alloc_bytes = 0;
  /// Scenario construction cost (scenario benches only): ns per node
  /// to build the full instance — placement, grid, pools, node stacks.
  /// 0 when not measured; check_bench.py gates it when both sides have it.
  double setup_ns_per_node = 0.0;
  /// Deterministic per-layer counters (scenario benches only): lets
  /// check_bench.py flag behaviour drift (e.g. a retry storm) that does not
  /// show up as a timing regression.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  [[nodiscard]] double events_per_sec() const {
    return best_round_ns > 0.0 ? 1e9 / best_round_ns : 0.0;
  }
  [[nodiscard]] double ns_per_event() const { return best_round_ns; }
  [[nodiscard]] double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocations) / static_cast<double>(events)
               : 0.0;
  }
};

/// Runs `body` repeatedly until it has consumed at least `min_seconds` of
/// wall clock, measuring time and allocations. `body` returns the number of
/// work units it performed. The timing statistic is the FASTEST round's
/// ns/event: on a shared single-core box the mean absorbs co-tenant noise
/// spikes (observed 1.9x swings between identical runs), while the
/// per-round minimum tracks the code's actual cost and keeps the
/// check_bench.py tolerance band meaningful. Allocation counts are summed
/// over every round (they are deterministic, so noise is not a concern).
template <typename Body>
BenchResult measure(const std::string& name, double min_seconds, Body&& body) {
  // One warmup round: lets pools/vectors reach steady-state capacity so the
  // measured region reflects steady-state behaviour, not cold growth.
  (void)body();
  BenchResult r;
  r.name = name;
  r.best_round_ns = std::numeric_limits<double>::infinity();
  const std::uint64_t alloc0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    const auto round_t0 = Clock::now();
    const std::uint64_t round_events = body();
    const auto round_t1 = Clock::now();
    r.events += round_events;
    if (round_events > 0) {
      const double round_ns =
          std::chrono::duration<double, std::nano>(round_t1 - round_t0)
              .count() /
          static_cast<double>(round_events);
      r.best_round_ns = std::min(r.best_round_ns, round_ns);
    }
    elapsed = std::chrono::duration<double>(round_t1 - t0).count();
  } while (elapsed < min_seconds);
  r.seconds = elapsed;
  r.allocations = g_alloc_count.load(std::memory_order_relaxed) - alloc0;
  r.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  std::fprintf(stderr,
               "  %-28s %12.0f ev/s  %8.1f ns/ev  %7.3f allocs/ev\n",
               r.name.c_str(), r.events_per_sec(), r.ns_per_event(),
               r.allocs_per_event());
  return r;
}

/// Payload comparable to the capture of Channel::transmit's per-receiver
/// lambda (~56 bytes: this + Airframe + power + id + duration). This is the
/// hot-path capture size; a type-erased callback that cannot store it inline
/// pays one heap allocation per scheduled event.
struct HotPayload {
  void* self = nullptr;
  std::uint64_t frame_id = 0;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  double power_dbm = 0.0;
  double duration = 0.0;
  double extra[2] = {0.0, 0.0};
};

BenchResult bench_schedule_execute() {
  constexpr std::size_t kEvents = 1 << 16;
  des::Rng rng(1);
  des::Scheduler sched;  // reused across rounds: steady-state pools
  std::uint64_t sink = 0;
  return measure("schedule_execute", 1.0, [&]() {
    HotPayload payload;
    payload.self = &sink;
    for (std::size_t i = 0; i < kEvents; ++i) {
      payload.frame_id = i;
      sched.schedule_at(sched.now() + rng.uniform01(), [payload]() {
        *static_cast<std::uint64_t*>(payload.self) += payload.frame_id;
      });
    }
    sched.run();
    return kEvents;
  });
}

BenchResult bench_schedule_cancel_churn() {
  constexpr std::size_t kEvents = 1 << 15;
  des::Rng rng(2);
  des::Scheduler sched;
  std::vector<des::EventId> ids;
  ids.reserve(kEvents);
  std::uint64_t sink = 0;
  return measure("schedule_cancel_churn", 1.0, [&]() {
    HotPayload payload;
    payload.self = &sink;
    ids.clear();
    for (std::size_t i = 0; i < kEvents; ++i) {
      payload.frame_id = i;
      ids.push_back(
          sched.schedule_at(sched.now() + rng.uniform01(), [payload]() {
            *static_cast<std::uint64_t*>(payload.self) += payload.frame_id;
          }));
    }
    // Cancel half, reschedule a quarter, then drain.
    for (std::size_t i = 0; i < kEvents; i += 2) sched.cancel(ids[i]);
    for (std::size_t i = 0; i < kEvents; i += 4) {
      payload.frame_id = i;
      sched.schedule_at(sched.now() + rng.uniform01(),
                        [payload]() { (void)payload; });
    }
    sched.run();
    return kEvents + kEvents / 4;
  });
}

BenchResult bench_timer_churn() {
  constexpr std::size_t kRestarts = 1 << 16;
  des::Scheduler sched;
  des::Timer timer(sched);
  std::uint64_t sink = 0;
  return measure("timer_restart_churn", 1.0, [&]() {
    HotPayload payload;
    payload.self = &sink;
    for (std::size_t i = 0; i < kRestarts; ++i) {
      payload.frame_id = i;
      timer.start(1.0, [payload]() {
        *static_cast<std::uint64_t*>(payload.self) += payload.frame_id;
      });
    }
    sched.run();
    return kRestarts;
  });
}

// Raw QuadHeap push/pop with scheduler-shaped 24-byte entries: isolates the
// heap from slot bookkeeping so heap-structure regressions show directly.
BenchResult bench_quad_heap() {
  struct Entry {
    double time;
    std::uint64_t sequence;
    std::uint64_t slot;
  };
  struct Earlier {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.sequence < b.sequence;
    }
  };
  constexpr std::size_t kEvents = 1 << 16;
  des::Rng rng(3);
  des::QuadHeap<Entry, Earlier> heap;
  heap.reserve(kEvents);
  std::uint64_t sink = 0;
  return measure("quad_heap_push_pop", 1.0, [&]() {
    for (std::size_t i = 0; i < kEvents; ++i) {
      heap.push(Entry{rng.uniform01(), i, i});
    }
    while (!heap.empty()) {
      sink += heap.top().slot;
      heap.pop();
    }
    return kEvents;
  });
}

// Pooled packet round trip: make_packet + last-ref drop, the unit of work
// the fig1/fig3 send paths pay per originated packet. Steady state must be
// allocation-free (the warmup round carves the arena).
BenchResult bench_pool_box_release() {
  constexpr std::size_t kBoxes = 1 << 15;
  net::PacketInit init;
  init.origin = 1;
  init.target = 2;
  std::uint64_t sink = 0;
  return measure("pool_box_release", 1.0, [&]() {
    for (std::size_t i = 0; i < kBoxes; ++i) {
      init.sequence = static_cast<std::uint32_t>(i);
      const net::PacketRef packet = net::make_packet(net::PacketInit(init));
      sink += packet.sequence();
    }
    return kBoxes;
  });
}

struct NullListener final : phy::RadioListener {
  void on_receive(const phy::Airframe&, const phy::RxInfo&) override {}
  void on_tx_done(std::uint64_t) override {}
  void on_medium_changed(bool) override {}
};

BenchResult bench_channel_broadcast(std::size_t nodes) {
  const geom::Terrain terrain(2000.0, 2000.0);
  des::Rng rng(6);
  const auto positions = geom::place_uniform(terrain, nodes, rng);
  des::Scheduler sched;
  phy::FreeSpace for_power;
  phy::RadioParams radio;
  radio.tx_power_dbm =
      phy::tx_power_for_range(for_power, 250.0, radio.rx_threshold_dbm);
  phy::Channel channel(sched, terrain, std::make_unique<phy::FreeSpace>(),
                       radio, positions, des::Rng(7));
  std::vector<NullListener> listeners(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    channel.transceiver(i).attach(listeners[i]);
  }
  std::uint32_t sender = 0;
  std::uint64_t executed0 = 0;
  auto result = measure(
      "channel_broadcast_n" + std::to_string(nodes), 1.0, [&]() {
        const std::uint64_t before = sched.executed_count();
        for (int round = 0; round < 64; ++round) {
          phy::Airframe frame;
          frame.sender = sender++ % static_cast<std::uint32_t>(nodes);
          frame.id = channel.next_frame_id(frame.sender);
          frame.size_bytes = 128;
          channel.transmit(frame);
          sched.run();  // drain all reception events
        }
        return sched.executed_count() - before;
      });
  (void)executed0;
  return result;
}

// Dense concurrent signals: every node in one radio neighborhood, many
// transmissions in flight at once, so each arrival/expiry linear-scans a
// Transceiver::signals_ vector holding ~kSenders entries. This is the
// worst case for the flat-vector signal set (kReservedSignals = 8, denser
// sets spill to per-instance heap growth); the bench tracks the cost so a
// future structure change has a before/after number.
BenchResult bench_dense_signals() {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kSenders = 32;
  const geom::Terrain terrain(200.0, 200.0);  // everyone hears everyone
  des::Rng rng(11);
  const auto positions = geom::place_uniform(terrain, kNodes, rng);
  des::Scheduler sched;
  phy::FreeSpace for_power;
  phy::RadioParams radio;
  radio.tx_power_dbm =
      phy::tx_power_for_range(for_power, 250.0, radio.rx_threshold_dbm);
  phy::Channel channel(sched, terrain, std::make_unique<phy::FreeSpace>(),
                       radio, positions, des::Rng(12));
  std::vector<NullListener> listeners(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    channel.transceiver(i).attach(listeners[i]);
  }
  return measure("channel_dense_signals", 1.0, [&]() {
    const std::uint64_t before = sched.executed_count();
    for (int round = 0; round < 32; ++round) {
      // Launch all senders before draining: their airtimes overlap, so
      // every receiver accumulates ~kSenders concurrent ActiveSignals.
      for (std::uint32_t s = 0; s < kSenders; ++s) {
        phy::Airframe frame;
        frame.sender = s;
        frame.id = channel.next_frame_id(frame.sender);
        frame.size_bytes = 512;
        channel.transmit(frame);
      }
      sched.run();
    }
    return sched.executed_count() - before;
  });
}

BenchResult bench_scenario(const std::string& name, sim::ProtocolKind proto,
                           std::size_t nodes, std::size_t pairs) {
  sim::ScenarioConfig config;
  config.nodes = nodes;
  config.width_m = config.height_m = 1000.0;
  config.pairs = pairs;
  config.protocol = proto;
  config.cbr_interval = 1.0;
  config.traffic_stop = 6.0;
  config.sim_end = 10.0;
  config.seed = 42;
  sim::ScenarioResult last;
  BenchResult bench = measure(name, 1.0, [&]() {
    last = sim::run_scenario(config);
    return last.events_executed;
  });
  // Construction cost, best of three (same noise-floor rationale as the
  // main loop). Pools are warm from the measured rounds above, so this is
  // the steady-state rebuild cost a replication sweep pays per instance.
  double best_ns = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 3; ++round) {
    const auto t0 = Clock::now();
    sim::SimInstance instance(config);
    const auto t1 = Clock::now();
    best_ns = std::min(
        best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  bench.setup_ns_per_node = best_ns / static_cast<double>(nodes);
  // Counters are deterministic per seed, so the last round's snapshot is
  // representative. Pool counters are excluded: they depend on how many
  // rounds ran on this thread before (warm arenas), not on the scenario.
  namespace m = rrnet::obs::metric;
  for (const std::string_view key :
       {m::kPhyDropCollision, m::kPhyDropBelowSensitivity,
        m::kPhyTxDroppedBusy, m::kPhyDropAbortedOff, m::kMacRetries,
        m::kMacBackoffs, m::kNetTxControl, m::kNetDupCacheHits,
        m::kElectionWon, m::kDesEventsExecuted}) {
    if (last.metrics.contains(key)) {
      bench.counters.emplace_back(std::string(key), last.metrics.value(key));
    }
  }
  return bench;
}

void write_json(const std::string& path, const std::vector<BenchResult>& rs) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  os << "{\n  \"schema\": \"rrnet-bench-engine-v1\",\n";
  os << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const BenchResult& r = rs[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", "
                  "\"events\": %llu, \"seconds\": "
                  "%.6f, \"events_per_sec\": %.1f, \"ns_per_event\": %.2f, "
                  "\"allocations\": %llu, \"allocs_per_event\": %.4f, "
                  "\"alloc_bytes\": %llu",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.events), r.seconds,
                  r.events_per_sec(), r.ns_per_event(),
                  static_cast<unsigned long long>(r.allocations),
                  r.allocs_per_event(),
                  static_cast<unsigned long long>(r.alloc_bytes));
    os << buf;
    if (r.setup_ns_per_node > 0.0) {
      std::snprintf(buf, sizeof(buf), ", \"setup_ns_per_node\": %.2f",
                    r.setup_ns_per_node);
      os << buf;
    }
    if (!r.counters.empty()) {
      os << ", \"counters\": {";
      for (std::size_t c = 0; c < r.counters.size(); ++c) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                      c > 0 ? ", " : "", r.counters[c].first.c_str(),
                      static_cast<unsigned long long>(r.counters[c].second));
        os << buf;
      }
      os << "}";
    }
    os << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_engine.json";
  std::fprintf(stderr, "rrnet engine bench suite\n");
  std::vector<BenchResult> results;
  results.push_back(bench_schedule_execute());
  results.push_back(bench_schedule_cancel_churn());
  results.push_back(bench_timer_churn());
  results.push_back(bench_quad_heap());
  results.push_back(bench_pool_box_release());
  results.push_back(bench_channel_broadcast(100));
  results.push_back(bench_channel_broadcast(500));
  results.push_back(bench_dense_signals());
  results.push_back(bench_scenario("fig1_flooding_wallclock",
                                   sim::ProtocolKind::Counter1Flooding, 80, 1));
  results.push_back(
      bench_scenario("fig1_ssaf_wallclock", sim::ProtocolKind::Ssaf, 80, 1));
  results.push_back(bench_scenario("fig3_rr_wallclock",
                                   sim::ProtocolKind::Routeless, 100, 5));
  results.push_back(
      bench_scenario("fig3_aodv_wallclock", sim::ProtocolKind::Aodv, 100, 5));
  write_json(out, results);
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}

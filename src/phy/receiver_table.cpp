#include "phy/receiver_table.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "util/contracts.hpp"

namespace rrnet::phy {

ReceiverTable::ReceiverTable(const geom::Terrain& terrain,
                             const std::vector<geom::Vec2>& positions,
                             double range_m, const PropagationModel& model,
                             double tx_power_mw, double cutoff_mw,
                             des::Rng rng)
    : grid_(terrain, /*cell_size=*/std::max(1.0, range_m), positions),
      range_m_(range_m),
      model_(&model),
      tx_power_mw_(tx_power_mw),
      cutoff_mw_(cutoff_mw),
      rng_(rng),
      link_seed_base_(rng_.seed()),
      stochastic_(model.stochastic()) {}

void ReceiverTable::fill(std::uint32_t sender, des::Time now,
                         std::uint64_t draw_index,
                         std::vector<PendingRx>& out) {
  RRNET_EXPECTS(sender < size());
  out.clear();
  for (const Neighbour& nb : neighbours(sender)) {
    // Stochastic models draw from counter-based per-link streams keyed on
    // (base, sender, receiver, frame counter), so a fade does not depend on
    // the order receivers are visited in. Powers are in mW: the linear
    // entry point spares a log10 per draw and a pow per arrival.
    double power_mw;
    if (stochastic_) {
      des::LinkRng link(link_seed_base_, sender, nb.id, draw_index);
      power_mw = model_->rx_power_mw(tx_power_mw_, nb.distance_m, link.rng());
    } else {
      power_mw = model_->rx_power_mw(tx_power_mw_, nb.distance_m, rng_);
    }
    if (power_mw < cutoff_mw_) continue;  // imperceptible
    out.push_back({now + nb.distance_m / des::kSpeedOfLight, power_mw, nb.id});
  }
  // Arrivals never fall as distance grows, but rounding can give two
  // distances one arrival: equal arrivals go in receiver-id order.
  for (auto run = out.begin(); run != out.end();) {
    const des::Time arrival = run->arrival;
    const auto run_end = std::find_if(
        run + 1, out.end(),
        [arrival](const PendingRx& rx) { return rx.arrival != arrival; });
    if (run_end - run > 1) {
      std::sort(run, run_end, [](const PendingRx& a, const PendingRx& b) {
        return a.rx_id < b.rx_id;
      });
    }
    run = run_end;
  }
}

void ReceiverTable::set_position(std::uint32_t id, geom::Vec2 position) {
  grid_.update_position(id, position);
  if (!storing_) return;
  // Mobility moves every node on every tick, so no list would be reused.
  storing_ = false;
  std::vector<Span>().swap(spans_);
  std::vector<Neighbour>().swap(arena_);
  stored_ = 0;
}

std::span<const ReceiverTable::Neighbour> ReceiverTable::neighbours(
    std::uint32_t sender) {
  if (storing_) {
    if (spans_.empty()) spans_.assign(size(), Span{kNotStored, kNotStored});
    const Span span = spans_[sender];
    if (span.begin != kNotStored) {
      return {arena_.data() + span.begin, arena_.data() + span.end};
    }
  }
  // Thread-local like the query buffer in build(): channels are built and
  // torn down once per run, so per-table buffers would re-grow every run.
  static thread_local std::vector<Neighbour> scratch;
  build(sender, scratch);
  if (storing_ && arena_.size() + scratch.size() <= kBudgetEntries) {
    if (arena_.capacity() == 0) {
      // No more than every ordered pair: a small network reserves little.
      const std::size_t n = size();
      arena_.reserve(std::min(kBudgetEntries, n * (n - 1)));
    }
    const auto begin = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), scratch.begin(), scratch.end());
    spans_[sender] = {begin, static_cast<std::uint32_t>(arena_.size())};
    ++stored_;
  }
  return scratch;
}

void ReceiverTable::build(std::uint32_t sender,
                          std::vector<Neighbour>& out) const {
  // Thread-local like the scratch list in neighbours().
  static thread_local std::vector<geom::SpatialGrid::Hit> hits;
  static thread_local std::vector<Neighbour> unsorted;
  static thread_local std::vector<std::uint32_t> bucket_start;
  grid_.query_hits(grid_.position(sender), range_m_, hits);
  unsorted.clear();
  for (const geom::SpatialGrid::Hit& hit : hits) {
    // geom::distance bit for bit: (a - b) and (b - a) square alike.
    if (hit.id != sender) {
      unsorted.push_back({std::sqrt(hit.distance_sq), hit.id});
    }
  }
  // Sort by (distance, id) in linear expected time: scatter into one more
  // bucket than there are entries, keyed by distance, then insertion-sort.
  // Each floating-point step of the key rounds monotonically, so the key
  // never falls as the distance grows and no entry moves past its bucket;
  // the clamp takes in a distance one ulp past the range.
  const std::size_t buckets = unsorted.size() + 1;
  const double scale =
      range_m_ > 0.0 ? static_cast<double>(buckets) / range_m_ : 0.0;
  const auto bucket = [&](double distance_m) {
    return std::min(buckets - 1,
                    static_cast<std::size_t>(distance_m * scale));
  };
  bucket_start.assign(buckets, 0);
  for (const Neighbour& nb : unsorted) ++bucket_start[bucket(nb.distance_m)];
  std::exclusive_scan(bucket_start.begin(), bucket_start.end(),
                      bucket_start.begin(), 0u);
  out.resize(unsorted.size());
  for (const Neighbour& nb : unsorted) {
    out[bucket_start[bucket(nb.distance_m)]++] = nb;
  }
  const auto before = [](const Neighbour& a, const Neighbour& b) {
    return std::tie(a.distance_m, a.id) < std::tie(b.distance_m, b.id);
  };
  for (std::size_t i = 1; i < out.size(); ++i) {
    const Neighbour nb = out[i];
    std::size_t j = i;
    for (; j > 0 && before(nb, out[j - 1]); --j) out[j] = out[j - 1];
    out[j] = nb;
  }
}

}  // namespace rrnet::phy

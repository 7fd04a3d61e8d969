// Who hears a sender, when, and at what power.
//
// The channel asks this once per transmitted frame. The answer has a
// geometric part that cannot change while no node moves (every other node
// within the interference range, with its distance) and a per-frame part:
// the power the propagation model gives at that distance (a fresh
// des::LinkRng draw under fading) and the arrival time `now + d / c`. So
// the table keeps the geometric part per sender. A sender's first fill
// builds its list (one grid query returning squared distances, a square
// root per receiver, and a linear-time bucket pass into (distance, id)
// order) and stores it in one arena; later fills only evaluate the model
// per entry. A list that does not fit the arena's byte budget is
// built into scratch on every fill, and from the first set_position on the
// table stores nothing.
//
// Every fill comes out sorted by (arrival, receiver id): arrivals ascend
// with distance, and each run of equal arrivals (rounding can give two
// distances one arrival) is re-sorted by id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "des/rng.hpp"
#include "des/time.hpp"
#include "geom/spatial_grid.hpp"
#include "phy/propagation.hpp"

namespace rrnet::phy {

/// One receiver of one transmission, as the channel's walker consumes it.
struct PendingRx {
  des::Time arrival;   ///< absolute signal-start time at this receiver
  double power_mw;     ///< drawn from the model at transmit time (linear)
  std::uint32_t rx_id;
  /// Transceiver::signal_arrives' token, set at signal start and handed
  /// back at signal end.
  std::uint32_t token = 0;
};
static_assert(sizeof(PendingRx) == 24);

class ReceiverTable {
 public:
  /// Bytes of stored lists per table: room for every list of a 500-node
  /// instance at the paper's density (~1.4 MiB). A 10^5-node flood sends
  /// from ~12 000 nodes, whose lists would take ~38 MB; it stores its first
  /// ~1 300 senders' lists, and most of its frames build theirs per frame.
  static constexpr std::size_t kByteBudget = std::size_t{4} << 20;

  /// `positions[i]` is node i. Receivers lie within `range_m` (the grid's
  /// cell size too) and get `model`'s power for `tx_power_mw`, dropped
  /// below `cutoff_mw`. Stochastic models draw from des::LinkRng keyed on
  /// `rng.seed()`; deterministic ones are handed `rng` and draw nothing.
  /// `model` must outlive the table.
  ReceiverTable(const geom::Terrain& terrain,
                const std::vector<geom::Vec2>& positions, double range_m,
                const PropagationModel& model, double tx_power_mw,
                double cutoff_mw, des::Rng rng);

  /// Replace `out` with every node that hears the frame `sender` starts at
  /// `now`, sorted by (arrival, rx_id). `draw_index` keys the fading draws
  /// (the per-sender frame counter).
  void fill(std::uint32_t sender, des::Time now, std::uint64_t draw_index,
            std::vector<PendingRx>& out);

  /// Move a node. The first call frees every stored list for good.
  void set_position(std::uint32_t id, geom::Vec2 position);

  [[nodiscard]] geom::Vec2 position(std::uint32_t id) const {
    return grid_.position(id);
  }
  [[nodiscard]] std::size_t size() const noexcept { return grid_.size(); }
  /// The grid's CSR order (geom::SpatialGrid::cell_order).
  [[nodiscard]] const std::vector<std::uint32_t>& cell_order() const noexcept {
    return grid_.cell_order();
  }
  /// Senders whose list is stored.
  [[nodiscard]] std::size_t stored_senders() const noexcept { return stored_; }

 private:
  struct Neighbour {
    double distance_m;
    std::uint32_t id;
  };
  static_assert(sizeof(Neighbour) <= 16);
  static constexpr std::size_t kBudgetEntries =
      kByteBudget / sizeof(Neighbour);

  /// [begin, end) of a sender's list in arena_; begin == kNotStored if none.
  struct Span {
    std::uint32_t begin;
    std::uint32_t end;
  };
  static constexpr std::uint32_t kNotStored = ~0u;

  /// The sender's stored list, or one built into thread-local scratch
  /// (valid until the next call on this thread).
  std::span<const Neighbour> neighbours(std::uint32_t sender);
  /// Every other node within range of `sender`, sorted by (distance, id).
  void build(std::uint32_t sender, std::vector<Neighbour>& out) const;

  geom::SpatialGrid grid_;
  double range_m_;
  const PropagationModel* model_;
  double tx_power_mw_;
  double cutoff_mw_;
  des::Rng rng_;
  std::uint64_t link_seed_base_;
  bool stochastic_;
  bool storing_ = true;     ///< false from the first set_position on
  std::vector<Span> spans_;  ///< per sender; allocated by the first fill
  std::vector<Neighbour> arena_;
  std::size_t stored_ = 0;
};

}  // namespace rrnet::phy

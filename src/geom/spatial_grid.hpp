// Uniform-grid spatial index for range queries over node positions.
//
// The channel's receiver table asks "which nodes lie within distance r of
// p, and how far" whenever it builds a sender's receiver list; at 10^5
// nodes that is most transmissions, so it must not be O(n).
// Cell size equals the query radius used most often (the interference
// range), so a query touches at most 9 cells.
//
// Layout is flat CSR: one offsets array (cells + 1 entries) into one
// contiguous ids array, built in a single counting-sort pass that fills in
// ascending id order, so every cell span is sorted by id. Positions are
// stored once, in the same CSR order, with an id -> CSR index array for
// `position()` and moves: a cell scan reads ids and positions
// sequentially. Mobility does not splice the CSR per move:
// `update_position` rewrites the node's position in its CSR slot and its
// `cell_of_`, and appends the id to a dislodged list; queries scan the
// (stale) base span filtered by the current cell plus the dislodged list,
// and the index is recompacted in O(n + cells) once the accumulated query
// overhead since the last epoch would exceed a rebuild ("scan debt"), or
// when the dislodged list hits a hard cap.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/terrain.hpp"
#include "geom/vec2.hpp"

namespace rrnet::geom {

class SpatialGrid {
 public:
  /// Index positions (id = index into `positions`) over `terrain` with the
  /// given cell size (> 0).
  SpatialGrid(const Terrain& terrain, double cell_size,
              const std::vector<Vec2>& positions);

  /// A node within a query's radius and its squared distance from the
  /// center: `distance_sq(position(id), center)`, bit for bit.
  struct Hit {
    double distance_sq;
    std::uint32_t id;
  };

  /// Collect every node within `radius` of `center` into `out` (cleared
  /// first), in an order that depends on the index's history: for callers
  /// that sort by a key of their own.
  void query_hits(Vec2 center, double radius, std::vector<Hit>& out) const;
  /// The ids query_hits() finds, sorted by id.
  void query(Vec2 center, double radius, std::vector<std::uint32_t>& out) const;

  /// Move a node (e.g. mobility extensions); keeps the index consistent.
  /// Deferred: the CSR arrays are only rebuilt at epoch boundaries.
  void update_position(std::uint32_t id, Vec2 new_position);

  /// Rebuild the CSR arrays from current cells and start a new epoch.
  /// Called automatically from `update_position` when the deferred-update
  /// overhead amortizes a rebuild; callable explicitly too.
  void compact();

  [[nodiscard]] Vec2 position(std::uint32_t id) const;
  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] double cell_size() const noexcept { return cell_size_; }
  /// Every id in CSR order as of the last compaction: cells row-major, ids
  /// ascending inside a cell.
  [[nodiscard]] const std::vector<std::uint32_t>& cell_order() const noexcept {
    return ids_;
  }
  /// Moves recorded since the last compaction epoch.
  [[nodiscard]] std::size_t pending_updates() const noexcept {
    return dislodged_.size();
  }

 private:
  [[nodiscard]] std::size_t cell_index(Vec2 p) const noexcept;
  void rebuild_csr();

  double cell_size_;
  std::size_t cols_;
  std::size_t rows_;
  double width_;
  double height_;
  std::vector<std::uint32_t> offsets_;       // cells + 1; CSR row starts
  std::vector<std::uint32_t> ids_;           // n; per-cell spans sorted by id
  std::vector<Vec2> positions_;              // n; parallel to ids_
  std::vector<std::uint32_t> index_of_;      // CSR index of each id
  std::vector<std::uint32_t> cell_of_;       // current cell of each id
  std::vector<std::uint32_t> base_cell_of_;  // cell at last compaction
  std::vector<std::uint32_t> dislodged_;     // ids moved out of their base cell
  std::vector<std::uint8_t> listed_;         // id already on dislodged_
  // Amortization state: each query pays O(|dislodged_|) extra; once that
  // debt exceeds a rebuild cost we compact. Mutable because `query()` is
  // logically const; only ever written when dislodged_ is non-empty.
  mutable std::uint64_t scan_debt_ = 0;
};

}  // namespace rrnet::geom

#include "geom/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contracts.hpp"

namespace rrnet::geom {

SpatialGrid::SpatialGrid(const Terrain& terrain, double cell_size,
                         const std::vector<Vec2>& positions)
    : cell_size_(cell_size),
      cols_(std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(terrain.width() / cell_size)))),
      rows_(std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(terrain.height() / cell_size)))),
      width_(terrain.width()),
      height_(terrain.height()),
      positions_(positions),
      index_of_(positions.size()) {
  RRNET_EXPECTS(cell_size > 0.0);
  // Until the first rebuild, positions are in id order.
  std::iota(index_of_.begin(), index_of_.end(), 0u);
  cell_of_.resize(positions_.size());
  for (std::uint32_t id = 0; id < positions_.size(); ++id) {
    RRNET_EXPECTS(terrain.contains(positions_[id]));
    cell_of_[id] = static_cast<std::uint32_t>(cell_index(positions_[id]));
  }
  listed_.assign(positions_.size(), 0);
  rebuild_csr();
}

std::size_t SpatialGrid::cell_index(Vec2 p) const noexcept {
  auto col = static_cast<std::size_t>(std::clamp(p.x, 0.0, width_) / cell_size_);
  auto row = static_cast<std::size_t>(std::clamp(p.y, 0.0, height_) / cell_size_);
  col = std::min(col, cols_ - 1);
  row = std::min(row, rows_ - 1);
  return row * cols_ + col;
}

void SpatialGrid::rebuild_csr() {
  // Counting sort over current cells; filling in ascending id order keeps
  // every cell span sorted by id. Positions move to their new CSR slots.
  const std::size_t cells = cols_ * rows_;
  offsets_.assign(cells + 1, 0);
  ids_.resize(positions_.size());
  for (const std::uint32_t c : cell_of_) ++offsets_[c + 1];
  for (std::size_t c = 1; c <= cells; ++c) offsets_[c] += offsets_[c - 1];
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  std::vector<Vec2> positions(positions_.size());
  for (std::uint32_t id = 0; id < positions_.size(); ++id) {
    const std::uint32_t k = cursor[cell_of_[id]]++;
    ids_[k] = id;
    positions[k] = positions_[index_of_[id]];
    index_of_[id] = k;
  }
  positions_.swap(positions);
  base_cell_of_ = cell_of_;
}

void SpatialGrid::compact() {
  if (dislodged_.empty()) return;
  rebuild_csr();
  for (const std::uint32_t id : dislodged_) listed_[id] = 0;
  dislodged_.clear();
  scan_debt_ = 0;
}

void SpatialGrid::query(Vec2 center, double radius,
                        std::vector<std::uint32_t>& out) const {
  static thread_local std::vector<Hit> hits;
  query_hits(center, radius, hits);
  out.clear();
  for (const Hit& hit : hits) out.push_back(hit.id);
  std::sort(out.begin(), out.end());
}

void SpatialGrid::query_hits(Vec2 center, double radius,
                             std::vector<Hit>& out) const {
  out.clear();
  const double r_sq = radius * radius;
  const auto col_lo = static_cast<std::int64_t>(
      std::floor((center.x - radius) / cell_size_));
  const auto col_hi = static_cast<std::int64_t>(
      std::floor((center.x + radius) / cell_size_));
  const auto row_lo = static_cast<std::int64_t>(
      std::floor((center.y - radius) / cell_size_));
  const auto row_hi = static_cast<std::int64_t>(
      std::floor((center.y + radius) / cell_size_));
  const std::int64_t row_min = std::max<std::int64_t>(0, row_lo);
  const std::int64_t row_max =
      std::min<std::int64_t>(static_cast<std::int64_t>(rows_) - 1, row_hi);
  const std::int64_t col_min = std::max<std::int64_t>(0, col_lo);
  const std::int64_t col_max =
      std::min<std::int64_t>(static_cast<std::int64_t>(cols_) - 1, col_hi);
  const bool clean = dislodged_.empty();
  for (std::int64_t row = row_min; row <= row_max; ++row) {
    const std::size_t base = static_cast<std::size_t>(row) * cols_;
    for (std::int64_t col = col_min; col <= col_max; ++col) {
      const std::size_t c = base + static_cast<std::size_t>(col);
      for (std::uint32_t k = offsets_[c]; k < offsets_[c + 1]; ++k) {
        // Base spans are stale while moves are pending: an id counts only
        // if it still lives here.
        if (!clean && cell_of_[ids_[k]] != c) continue;
        const double d_sq = distance_sq(positions_[k], center);
        if (d_sq <= r_sq) out.push_back({d_sq, ids_[k]});
      }
    }
  }
  if (!clean) {
    // Dislodged ids are missing from (or stale in) their base span; any
    // point within `radius` lies inside the clamped cell rect, so the
    // distance test alone decides membership.
    for (const std::uint32_t id : dislodged_) {
      if (cell_of_[id] == base_cell_of_[id]) continue;
      const double d_sq = distance_sq(positions_[index_of_[id]], center);
      if (d_sq <= r_sq) out.push_back({d_sq, id});
    }
    scan_debt_ += dislodged_.size();
  }
}

void SpatialGrid::update_position(std::uint32_t id, Vec2 new_position) {
  RRNET_EXPECTS(id < positions_.size());
  positions_[index_of_[id]] = new_position;
  const auto new_cell = static_cast<std::uint32_t>(cell_index(new_position));
  if (new_cell == cell_of_[id]) return;
  cell_of_[id] = new_cell;
  if (!listed_[id] && new_cell != base_cell_of_[id]) {
    listed_[id] = 1;
    dislodged_.push_back(id);
  }
  // Epoch rule: rebuild once queries have paid (in extra dislodged-list
  // scans) roughly what a rebuild costs, or when the list itself would
  // make single queries O(n/8). Epoch boundaries never change query
  // results, only their cost.
  const std::uint64_t rebuild_cost = positions_.size() + cols_ * rows_;
  if (scan_debt_ >= rebuild_cost ||
      dislodged_.size() >= std::max<std::size_t>(64, positions_.size() / 8)) {
    compact();
  }
}

Vec2 SpatialGrid::position(std::uint32_t id) const {
  RRNET_EXPECTS(id < positions_.size());
  return positions_[index_of_[id]];
}

}  // namespace rrnet::geom

// Connectivity analysis of a deployed network: the unit-disk graph induced
// by the channel's nominal range. Used by experiments to draw communicating
// pairs that are actually reachable (a partitioned pair says nothing about
// a protocol) and by tests as ground truth for hop counts.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/channel.hpp"

namespace rrnet::sim {

class Topology {
 public:
  /// Snapshot the disk graph at the channel's current positions, with edges
  /// at distance <= channel.nominal_range_m().
  explicit Topology(const phy::Channel& channel);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] const std::vector<std::uint32_t>& neighbors(
      std::uint32_t node) const;

  /// BFS hop distance; -1 if unreachable.
  [[nodiscard]] int hop_distance(std::uint32_t from, std::uint32_t to) const;
  [[nodiscard]] bool reachable(std::uint32_t from, std::uint32_t to) const {
    return hop_distance(from, to) >= 0;
  }
  /// True iff every node can reach every other node.
  [[nodiscard]] bool connected() const;
  /// Size of the largest connected component.
  [[nodiscard]] std::size_t largest_component() const;

 private:
  std::vector<std::vector<std::uint32_t>> adjacency_;
};

/// Draw `pairs` random (source, destination) pairs that are mutually
/// reachable in `topology` and at least `min_hops` apart. Falls back to an
/// unconstrained pair if none qualifies after `max_attempts` draws.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
draw_connected_pairs(const Topology& topology, std::size_t pairs,
                     des::Rng& rng, int min_hops = 1,
                     std::size_t max_attempts = 256);

}  // namespace rrnet::sim

#include "sim/topology.hpp"

#include <queue>

#include "util/contracts.hpp"

namespace rrnet::sim {

Topology::Topology(const phy::Channel& channel)
    : adjacency_(channel.node_count()) {
  const double range_sq = channel.nominal_range_m() * channel.nominal_range_m();
  std::vector<geom::Vec2> positions;
  positions.reserve(channel.node_count());
  for (std::uint32_t i = 0; i < channel.node_count(); ++i) {
    positions.push_back(channel.position(i));
  }
  const auto n = static_cast<std::uint32_t>(positions.size());
  // Id order: adjacency lists come out sorted by id, and BFS and pair
  // drawing visit neighbours in that order.
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (geom::distance_sq(positions[i], positions[j]) <= range_sq) {
        adjacency_[i].push_back(j);
        adjacency_[j].push_back(i);
      }
    }
  }
}

const std::vector<std::uint32_t>& Topology::neighbors(
    std::uint32_t node) const {
  RRNET_EXPECTS(node < adjacency_.size());
  return adjacency_[node];
}

int Topology::hop_distance(std::uint32_t from, std::uint32_t to) const {
  RRNET_EXPECTS(from < adjacency_.size());
  RRNET_EXPECTS(to < adjacency_.size());
  if (from == to) return 0;
  std::vector<int> dist(adjacency_.size(), -1);
  std::queue<std::uint32_t> queue;
  dist[from] = 0;
  queue.push(from);
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop();
    for (const std::uint32_t v : adjacency_[u]) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        if (v == to) return dist[v];
        queue.push(v);
      }
    }
  }
  return -1;
}

bool Topology::connected() const {
  return largest_component() == adjacency_.size();
}

std::size_t Topology::largest_component() const {
  std::vector<bool> seen(adjacency_.size(), false);
  std::size_t best = 0;
  for (std::uint32_t root = 0; root < adjacency_.size(); ++root) {
    if (seen[root]) continue;
    std::size_t size = 0;
    std::queue<std::uint32_t> queue;
    queue.push(root);
    seen[root] = true;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop();
      ++size;
      for (const std::uint32_t v : adjacency_[u]) {
        if (!seen[v]) {
          seen[v] = true;
          queue.push(v);
        }
      }
    }
    best = std::max(best, size);
  }
  return best;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> draw_connected_pairs(
    const Topology& topology, std::size_t pairs, des::Rng& rng, int min_hops,
    std::size_t max_attempts) {
  RRNET_EXPECTS(topology.node_count() >= 2);
  const auto n = static_cast<std::int64_t>(topology.node_count());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    std::pair<std::uint32_t, std::uint32_t> chosen{0, 1};
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      const auto src = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      const auto dst = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      if (src == dst) continue;
      chosen = {src, dst};
      const int hops = topology.hop_distance(src, dst);
      if (hops >= min_hops) break;
    }
    out.push_back(chosen);
  }
  return out;
}

}  // namespace rrnet::sim

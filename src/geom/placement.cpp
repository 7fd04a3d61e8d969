#include "geom/placement.hpp"

namespace rrnet::geom {

std::vector<Vec2> place_uniform(const Terrain& terrain, std::size_t n,
                                des::Rng& rng) {
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(
        {rng.uniform(0.0, terrain.width()), rng.uniform(0.0, terrain.height())});
  }
  return points;
}

}  // namespace rrnet::geom

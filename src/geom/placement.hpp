// Node placement over a terrain.
#pragma once

#include <cstddef>
#include <vector>

#include "des/rng.hpp"
#include "geom/terrain.hpp"

namespace rrnet::geom {

/// n points i.i.d. uniform over the terrain (the paper's layout).
[[nodiscard]] std::vector<Vec2> place_uniform(const Terrain& terrain,
                                              std::size_t n, des::Rng& rng);

}  // namespace rrnet::geom

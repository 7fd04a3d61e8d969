#include "sim/runner.hpp"

namespace rrnet::sim {

ScenarioResult run_scenario(const ScenarioConfig& config) {
  SimInstance sim(config);
  sim.run();
  return sim.result();
}

}  // namespace rrnet::sim

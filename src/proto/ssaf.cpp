#include "proto/ssaf.hpp"

namespace rrnet::proto {

namespace {
FloodingConfig to_flooding_config(const SsafConfig& config) {
  FloodingConfig fc;
  fc.lambda = config.lambda;
  fc.ttl = config.ttl;
  fc.blind = false;
  fc.counter_threshold = config.counter_threshold;
  return fc;
}
}  // namespace

SsafProtocol::SsafProtocol(net::Node& node, SsafConfig config)
    : FloodingProtocol(node, to_flooding_config(config),
                       std::make_unique<core::SignalStrengthBackoff>(
                           config.lambda, config.jitter_fraction)) {}

std::unique_ptr<net::Protocol> make_counter1_flooding(net::Node& node,
                                                      des::Time lambda,
                                                      std::uint8_t ttl) {
  FloodingConfig config;
  config.lambda = lambda;
  config.ttl = ttl;
  return std::make_unique<FloodingProtocol>(
      node, config, std::make_unique<core::UniformBackoff>(lambda));
}

std::unique_ptr<net::Protocol> make_ssaf(net::Node& node, SsafConfig config) {
  return std::make_unique<SsafProtocol>(node, config);
}

}  // namespace rrnet::proto

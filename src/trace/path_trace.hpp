// Records the actual relay points of traced packets — the information
// behind the paper's Figure 2 ("actual paths taken by different packets").
// By default only Data packets are traced; a packet-type mask widens the
// trace to control floods (PathDiscovery requests, PathReply floods), so
// discovery traffic renders on the same canvas as the data paths.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "des/time.hpp"
#include "geom/vec2.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"

namespace rrnet::trace {

/// Bit per net::PacketType, for PathTrace's type filter.
[[nodiscard]] constexpr std::uint32_t mask_of(net::PacketType type) noexcept {
  return 1u << static_cast<std::uint32_t>(type);
}
inline constexpr std::uint32_t kTraceDataOnly = mask_of(net::PacketType::Data);
inline constexpr std::uint32_t kTraceAllTypes = 0xFFFFFFFFu;

struct Hop {
  std::uint32_t node = 0;
  geom::Vec2 position{};
  des::Time time = 0.0;
};

struct PacketPath {
  std::uint32_t origin = 0;
  std::uint32_t target = 0;
  std::vector<Hop> hops;        ///< transmissions, in order
  bool delivered = false;
  des::Time delivered_at = 0.0;
};

class PathTrace final : public net::PacketObserver {
 public:
  /// Observe `network`, tracing packets whose type bit is set in
  /// `type_mask` (default: Data only — the paper's Figure 2).
  explicit PathTrace(net::Network& network,
                     std::uint32_t type_mask = kTraceDataOnly);
  ~PathTrace() override;
  PathTrace(const PathTrace&) = delete;
  PathTrace& operator=(const PathTrace&) = delete;

  void on_network_tx(std::uint32_t node,
                     const net::PacketRef& packet) override;
  void on_delivered(std::uint32_t node,
                    const net::PacketRef& packet) override;

  [[nodiscard]] const std::unordered_map<std::uint64_t, PacketPath>& paths()
      const noexcept {
    return paths_;
  }

  /// Mean perpendicular distance of a path's relay points from the straight
  /// line between two anchors (the Figure-2 "detour" metric).
  [[nodiscard]] static double mean_detour(const PacketPath& path, geom::Vec2 a,
                                          geom::Vec2 b);

  [[nodiscard]] std::uint32_t type_mask() const noexcept { return type_mask_; }

 private:
  [[nodiscard]] bool traced(net::PacketType type) const noexcept {
    return (type_mask_ & mask_of(type)) != 0;
  }

  net::Network* network_;
  std::uint32_t type_mask_;
  std::unordered_map<std::uint64_t, PacketPath> paths_;
};

}  // namespace rrnet::trace

// Data packets a routing protocol holds while it has no route (§4.1: data
// waits while a PathDiscovery looks for the target), for Routeless Routing
// and the AODV, DSR, Gradient and DSDV baselines alike. Per target: a FIFO
// of at most `capacity` packets, a retry count and a discovery timer. The
// first held packet starts a discovery, and the timer is armed after it
// went out. When the timer fires, a known route releases the entry; used-up
// retries drop its packets and erase it; otherwise the retry count grows and
// the discovery is re-sent. Releasing erases the entry before its packets
// are sent, and erasing cancels the timer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/timer.hpp"
#include "net/packet_buffer.hpp"
#include "net/protocol.hpp"
#include "util/pooled_containers.hpp"

namespace rrnet::proto {

class RouteWait {
 public:
  struct Limits {
    des::Time timeout = 0.0;        ///< per discovery attempt
    std::uint32_t max_retries = 0;  ///< re-discoveries before giving up
    std::size_t capacity = 0;       ///< packets held per target
  };

  /// What the owning protocol supplies. Owners are protocols, so the hooks
  /// share the protocol's vtable pointer and the node's scheduler. The
  /// defaults are those of an owner that sends no discovery (DSDV): its
  /// packets wait, untimed, until released.
  class Owner : public net::Protocol {
   public:
    using net::Protocol::Protocol;

   private:
    friend class RouteWait;
    /// Read from the owner's config whenever they are needed.
    [[nodiscard]] virtual Limits wait_limits() const = 0;
    /// Send `held`, oldest first; `target` has no entry any more.
    virtual void send_held(std::uint32_t target,
                           std::vector<net::PacketRef> held) = 0;
    /// Send a discovery for `target`; `retries` earlier ones timed out.
    /// Returns whether one went out: only then is a timer armed.
    virtual bool discover(std::uint32_t /*target*/,
                          std::uint32_t /*retries*/) {
      return false;
    }
    [[nodiscard]] virtual bool route_known(std::uint32_t /*target*/) const {
      return false;
    }
    /// The last retry timed out and `dropped` held packets were discarded.
    virtual void gave_up(std::size_t /*dropped*/) {}
  };

  explicit RouteWait(Owner& owner) noexcept : owner_(&owner) {}
  RouteWait(const RouteWait&) = delete;  // timers capture `this`
  RouteWait& operator=(const RouteWait&) = delete;

  /// Hold `packet` until a route to `target` is known. False, holding
  /// nothing, when the target already holds `capacity` packets.
  [[nodiscard]] bool hold(std::uint32_t target, net::PacketRef packet);
  /// As above, building the packet only once it is known to fit.
  [[nodiscard]] bool hold(std::uint32_t target, net::PacketInit init);
  /// A route to `target` appeared: send whatever it holds.
  void release(std::uint32_t target);
  [[nodiscard]] bool waiting(std::uint32_t target) const {
    return entries_.count(target) > 0;
  }

 private:
  struct Entry {
    explicit Entry(des::Scheduler& scheduler) : timer(scheduler) {}
    des::Timer timer;
    std::uint32_t retries = 0;
    std::vector<net::PacketRef> held;
  };

  template <typename Build>
  bool hold_built(std::uint32_t target, Build build);
  void start_discovery(std::uint32_t target, Entry& entry);
  void expire(std::uint32_t target);

  Owner* owner_;
  /// Nothing iterates it, so hash order reaches no output.
  util::PooledUnorderedMap<std::uint32_t, Entry> entries_;
};

}  // namespace rrnet::proto

// proto::RouteWait on its own: a stub owner on a real scheduler records
// every discovery, release and give-up the buffer decides.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "net/packet_buffer.hpp"
#include "proto/route_wait.hpp"
#include "test_helpers.hpp"

namespace rrnet::proto {
namespace {

constexpr std::uint32_t kTarget = 5;

class StubOwner final : public RouteWait::Owner {
 public:
  StubOwner(net::Node& node, RouteWait::Limits limits)
      : RouteWait::Owner(node), limits_(limits) {}

  void on_packet(const net::PacketRef&, const phy::RxInfo&, bool,
                 std::uint32_t) override {}
  std::uint64_t send_data(std::uint32_t, std::uint32_t) override { return 0; }
  const char* name() const noexcept override { return "stub"; }

  RouteWait wait{*this};
  bool sends_discoveries = true;
  std::set<std::uint32_t> routes;
  /// (target, retries) of every discovery, with the time it went out.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> discoveries;
  std::vector<des::Time> discovery_times;
  std::vector<std::uint64_t> sent;  ///< uids, in the order they went
  std::vector<std::size_t> gave_up_with;
  /// Uids to hold again, from inside send_held, when they are released.
  std::set<std::uint64_t> hold_again;

 private:
  RouteWait::Limits wait_limits() const override { return limits_; }
  bool discover(std::uint32_t target, std::uint32_t retries) override {
    discoveries.emplace_back(target, retries);
    discovery_times.push_back(node().scheduler().now());
    return sends_discoveries;
  }
  bool route_known(std::uint32_t target) const override {
    return routes.count(target) > 0;
  }
  void send_held(std::uint32_t target,
                 std::vector<net::PacketRef> held) override {
    for (net::PacketRef& packet : held) {
      sent.push_back(packet.uid());
      if (hold_again.erase(packet.uid()) > 0) {
        EXPECT_TRUE(wait.hold(target, std::move(packet)));
      }
    }
  }
  void gave_up(std::size_t dropped) override {
    gave_up_with.push_back(dropped);
  }

  RouteWait::Limits limits_;
};

net::PacketInit data_init(std::uint64_t uid) {
  net::PacketInit init;
  init.type = net::PacketType::Data;
  init.target = kTarget;
  init.uid = uid;
  return init;
}

net::PacketRef data_packet(std::uint64_t uid) {
  return net::make_packet(data_init(uid));
}

class RouteWaitTest : public ::testing::Test {
 protected:
  RouteWaitTest() : tn_(testing::make_line_net(2)) {}

  des::Scheduler& scheduler() { return tn_.scheduler; }

  testing::TestNet tn_;
};

TEST_F(RouteWaitTest, FirstHoldDiscoversLaterHoldsQueueAndAFullTargetRefuses) {
  StubOwner owner(tn_.node(0), {1.0, 2, 3});
  EXPECT_FALSE(owner.wait.waiting(kTarget));
  EXPECT_TRUE(owner.wait.hold(kTarget, data_packet(1)));
  EXPECT_TRUE(owner.wait.waiting(kTarget));
  EXPECT_TRUE(owner.wait.hold(kTarget, data_packet(2)));
  EXPECT_TRUE(owner.wait.hold(kTarget, data_init(3)));
  ASSERT_EQ(owner.discoveries.size(), 1u);
  EXPECT_EQ(owner.discoveries[0], std::make_pair(kTarget, 0u));

  // Full: both forms refuse, and the init form builds no packet.
  const std::size_t buffers = net::packet_buffer_pool().in_use();
  EXPECT_FALSE(owner.wait.hold(kTarget, data_init(4)));
  EXPECT_EQ(net::packet_buffer_pool().in_use(), buffers);
  EXPECT_FALSE(owner.wait.hold(kTarget, data_packet(5)));
  EXPECT_EQ(owner.discoveries.size(), 1u);

  // Another target waits on its own.
  EXPECT_TRUE(owner.wait.hold(kTarget + 1, data_packet(6)));
  ASSERT_EQ(owner.discoveries.size(), 2u);
  EXPECT_EQ(owner.discoveries[1], std::make_pair(kTarget + 1, 0u));

  owner.routes.insert(kTarget);
  owner.wait.release(kTarget);
  EXPECT_EQ(owner.sent, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(RouteWaitTest, TimeoutWithoutRouteRediscoversWithTheNextRetryCount) {
  StubOwner owner(tn_.node(0), {1.0, 2, 3});
  ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(1)));
  scheduler().run_until(1.5);
  ASSERT_EQ(owner.discoveries.size(), 2u);
  EXPECT_EQ(owner.discoveries[1], std::make_pair(kTarget, 1u));
  EXPECT_DOUBLE_EQ(owner.discovery_times[1], 1.0);
  scheduler().run_until(2.5);
  ASSERT_EQ(owner.discoveries.size(), 3u);
  EXPECT_EQ(owner.discoveries[2], std::make_pair(kTarget, 2u));
  EXPECT_TRUE(owner.wait.waiting(kTarget));
  EXPECT_TRUE(owner.sent.empty());
  EXPECT_TRUE(owner.gave_up_with.empty());
}

TEST_F(RouteWaitTest, RetriesUsedUpDropEveryHeldPacketAndEraseTheEntry) {
  StubOwner owner(tn_.node(0), {1.0, 2, 3});
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(uid)));
  }
  scheduler().run();
  EXPECT_EQ(owner.discoveries.size(), 3u);  // the first and two retries
  EXPECT_EQ(owner.gave_up_with, (std::vector<std::size_t>{3}));
  EXPECT_TRUE(owner.sent.empty());
  EXPECT_FALSE(owner.wait.waiting(kTarget));
  EXPECT_DOUBLE_EQ(scheduler().now(), 3.0);

  // The entry is gone: the next packet starts over.
  ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(4)));
  ASSERT_EQ(owner.discoveries.size(), 4u);
  EXPECT_EQ(owner.discoveries[3], std::make_pair(kTarget, 0u));
}

TEST_F(RouteWaitTest, RouteKnownAtTheTimeoutSendsTheHeldPacketsInOrder) {
  StubOwner owner(tn_.node(0), {1.0, 2, 3});
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(uid)));
  }
  owner.routes.insert(kTarget);  // learned without a release
  scheduler().run();
  EXPECT_EQ(owner.sent, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(owner.discoveries.size(), 1u);
  EXPECT_TRUE(owner.gave_up_with.empty());
  EXPECT_FALSE(owner.wait.waiting(kTarget));
  EXPECT_DOUBLE_EQ(scheduler().now(), 1.0);
}

TEST_F(RouteWaitTest, EarlyReleaseSendsInOrderAndNoTimeoutFiresAfterwards) {
  StubOwner owner(tn_.node(0), {1.0, 2, 3});
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(uid)));
  }
  EXPECT_EQ(scheduler().pending_count(), 1u);  // the discovery timeout
  owner.routes.insert(kTarget);
  owner.wait.release(kTarget);
  EXPECT_EQ(owner.sent, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(owner.wait.waiting(kTarget));
  EXPECT_EQ(scheduler().pending_count(), 0u);

  scheduler().run_until(10.0);
  EXPECT_EQ(scheduler().executed_count(), 0u);
  EXPECT_EQ(owner.discoveries.size(), 1u);
  EXPECT_EQ(owner.sent.size(), 3u);
  EXPECT_TRUE(owner.gave_up_with.empty());

  owner.wait.release(kTarget);  // nothing held: no-op
  EXPECT_EQ(owner.sent.size(), 3u);
}

TEST_F(RouteWaitTest, ReleaseErasesTheEntryBeforeSending) {
  // A packet held again while the released ones go out (a link break
  // inside send_held) starts a fresh wait of its own instead of joining
  // the entry being released.
  StubOwner owner(tn_.node(0), {1.0, 2, 3});
  ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(1)));
  ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(2)));
  owner.hold_again = {1};
  owner.wait.release(kTarget);
  EXPECT_EQ(owner.sent, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(owner.wait.waiting(kTarget));
  ASSERT_EQ(owner.discoveries.size(), 2u);
  EXPECT_EQ(owner.discoveries[1], std::make_pair(kTarget, 0u));

  owner.routes.insert(kTarget);
  scheduler().run();
  EXPECT_EQ(owner.sent, (std::vector<std::uint64_t>{1, 2, 1}));
}

TEST_F(RouteWaitTest, AnOwnerWithoutDiscoveriesHoldsUntimedUntilRelease) {
  StubOwner owner(tn_.node(0), {0.0, 0, 2});
  owner.sends_discoveries = false;
  ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(1)));
  ASSERT_TRUE(owner.wait.hold(kTarget, data_packet(2)));
  EXPECT_FALSE(owner.wait.hold(kTarget, data_packet(3)));
  EXPECT_EQ(scheduler().pending_count(), 0u);
  scheduler().run_until(100.0);
  EXPECT_TRUE(owner.wait.waiting(kTarget));
  owner.wait.release(kTarget);
  EXPECT_EQ(owner.sent, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(owner.gave_up_with.empty());
}

}  // namespace
}  // namespace rrnet::proto

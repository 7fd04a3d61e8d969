#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.hpp"

#include "net/duplicate_cache.hpp"
#include "net/packet_buffer.hpp"

namespace rrnet::net {
namespace {

PacketRef make_simple(PacketType type, std::uint32_t origin,
                      std::uint32_t sequence) {
  PacketInit init;
  init.type = type;
  init.origin = origin;
  init.sequence = sequence;
  return make_packet(std::move(init));
}

TEST(PacketBuffer, HeaderSizesPerType) {
  PacketInit init;
  init.type = PacketType::Data;
  init.payload_bytes = 512;
  PacketRef p = make_packet(std::move(init));
  EXPECT_EQ(p.header_bytes(), 20u);
  EXPECT_EQ(p.size_bytes(), 532u);
  EXPECT_EQ(make_simple(PacketType::PathDiscovery, 0, 0).header_bytes(), 24u);
  EXPECT_EQ(make_simple(PacketType::NetAck, 0, 0).header_bytes(), 16u);
  EXPECT_EQ(make_simple(PacketType::RouteError, 0, 0).header_bytes(), 12u);
}

TEST(PacketBuffer, FloodKeyDistinguishesOriginSequenceType) {
  const PacketRef a = make_simple(PacketType::Data, 1, 5);
  const PacketRef b = a;
  EXPECT_EQ(a.flood_key(), b.flood_key());
  EXPECT_NE(a.flood_key(), make_simple(PacketType::Data, 1, 6).flood_key());
  EXPECT_NE(a.flood_key(), make_simple(PacketType::Data, 2, 5).flood_key());
  EXPECT_NE(a.flood_key(),
            make_simple(PacketType::PathReply, 1, 5).flood_key());
  EXPECT_EQ(a.flood_key(), flood_key_of(1, 5, PacketType::Data));
}

TEST(PacketBuffer, FloodKeyStableAcrossRelayMutations) {
  PacketRef p = make_simple(PacketType::PathReply, 9, 4);
  const auto key = p.flood_key();
  p.hop().actual_hops = 7;
  p.hop().expected_hops = 3;
  p.hop().ttl = 1;
  p.hop().prev_hop = 12;
  EXPECT_EQ(p.flood_key(), key);
}

TEST(PacketBuffer, FloodKeysUniqueOverManyPackets) {
  std::set<std::uint64_t> keys;
  for (std::uint32_t origin = 0; origin < 50; ++origin) {
    for (std::uint32_t seq = 0; seq < 50; ++seq) {
      keys.insert(flood_key_of(origin, seq, PacketType::Data));
    }
  }
  EXPECT_EQ(keys.size(), 2500u);
}

TEST(PacketBuffer, RefCountTracksCopies) {
  PacketRef a = make_simple(PacketType::Data, 1, 1);
  EXPECT_EQ(a.buffer().ref_count(), 1u);
  {
    PacketRef b = a;
    EXPECT_EQ(a.buffer().ref_count(), 2u);
    PacketRef c = std::move(b);  // move transfers, no bump
    EXPECT_EQ(a.buffer().ref_count(), 2u);
    EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(c);
  }
  EXPECT_EQ(a.buffer().ref_count(), 1u);
  PacketRef d;
  EXPECT_FALSE(d);
  d = a;
  EXPECT_EQ(a.buffer().ref_count(), 2u);
  d.reset();
  EXPECT_FALSE(d);
  EXPECT_EQ(a.buffer().ref_count(), 1u);
}

TEST(PacketBuffer, HopStateIsPerRefNotShared) {
  PacketRef a = make_simple(PacketType::Data, 3, 7);
  a.hop().ttl = 10;
  a.hop().actual_hops = 2;
  PacketRef b = a;  // same buffer, independent trailer
  b.hop().ttl -= 1;
  b.hop().actual_hops += 1;
  b.hop().prev_hop = 42;
  EXPECT_EQ(a.ttl(), 10);
  EXPECT_EQ(a.actual_hops(), 2);
  EXPECT_EQ(a.prev_hop(), kNoNode);
  EXPECT_EQ(b.ttl(), 9);
  EXPECT_EQ(b.actual_hops(), 3);
  EXPECT_EQ(b.prev_hop(), 42u);
  EXPECT_EQ(&a.buffer(), &b.buffer());
}

TEST(PacketBuffer, ToInitRoundTripsHeaderAndTrailer) {
  PacketInit init;
  init.type = PacketType::RouteRequest;
  init.origin = 11;
  init.target = 22;
  init.sequence = 33;
  init.uid = 44;
  init.ttl = 9;
  init.payload_bytes = 100;
  init.created_at = 1.5;
  init.rreq_id = 55;
  init.origin_seqno = 66;
  init.target_seqno = 77;
  PacketRef p = make_packet(std::move(init));
  p.hop().actual_hops = 4;
  p.hop().prev_hop = 19;

  PacketInit again = p.to_init();
  EXPECT_EQ(again.type, PacketType::RouteRequest);
  EXPECT_EQ(again.origin, 11u);
  EXPECT_EQ(again.target, 22u);
  EXPECT_EQ(again.sequence, 33u);
  EXPECT_EQ(again.uid, 44u);
  EXPECT_EQ(again.ttl, 9);
  EXPECT_EQ(again.actual_hops, 4);
  EXPECT_EQ(again.prev_hop, 19u);
  EXPECT_EQ(again.payload_bytes, 100u);
  EXPECT_EQ(again.created_at, 1.5);
  EXPECT_EQ(again.rreq_id, 55u);
  EXPECT_EQ(again.origin_seqno, 66u);
  EXPECT_EQ(again.target_seqno, 77u);

  PacketRef rebuilt = make_packet(std::move(again));
  EXPECT_EQ(rebuilt.flood_key(), p.flood_key());
  EXPECT_NE(&rebuilt.buffer(), &p.buffer());  // a fresh allocation
}

/// Minimal concrete extension for the typed-slot tests.
class TestRouteExtension final : public PacketExtension {
 public:
  static constexpr ExtensionKind kKind = ExtensionKind::SourceRoute;
  explicit TestRouteExtension(std::vector<std::uint32_t> hops_in)
      : PacketExtension(kKind), hops(std::move(hops_in)) {}
  const std::vector<std::uint32_t> hops;
};

class TestTableExtension final : public PacketExtension {
 public:
  static constexpr ExtensionKind kKind = ExtensionKind::RouteTable;
  TestTableExtension() : PacketExtension(kKind) {}
};

TEST(PacketBuffer, TypedExtensionAccess) {
  PacketInit init;
  init.type = PacketType::RouteRequest;
  init.extension =
      make_extension<TestRouteExtension>(std::vector<std::uint32_t>{1, 2, 3});
  PacketRef p = make_packet(std::move(init));
  ASSERT_TRUE(p.has_extension());
  const auto* route = p.extension_as<TestRouteExtension>();
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->hops.size(), 3u);
  // Kind-checked: asking for the wrong concrete type yields nullptr.
  EXPECT_EQ(p.extension_as<TestTableExtension>(), nullptr);
}

TEST(PacketBuffer, ExtensionSharedAcrossRefCopies) {
  PacketInit init;
  init.extension =
      make_extension<TestRouteExtension>(std::vector<std::uint32_t>{5});
  PacketRef a = make_packet(std::move(init));
  PacketRef b = a;
  EXPECT_EQ(a.extension_as<TestRouteExtension>(),
            b.extension_as<TestRouteExtension>());
  // to_init copies the extension handle, not the extension.
  PacketRef c = make_packet(a.to_init());
  EXPECT_EQ(c.extension_as<TestRouteExtension>(),
            a.extension_as<TestRouteExtension>());
}

TEST(PacketBuffer, EmptyRefIsFalseAndResettable) {
  PacketRef p;
  EXPECT_FALSE(p);
  p = make_simple(PacketType::Data, 1, 2);
  EXPECT_TRUE(p);
  p.reset();
  EXPECT_FALSE(p);
  EXPECT_EQ(p.ttl(), HopState{}.ttl);  // trailer cleared too
}

TEST(PacketBuffer, DescribeMentionsTypeAndIds) {
  PacketInit init;
  init.type = PacketType::PathDiscovery;
  init.origin = 3;
  init.target = 8;
  const std::string s = make_packet(std::move(init)).describe();
  EXPECT_NE(s.find("PathDiscovery"), std::string::npos);
  EXPECT_NE(s.find("origin=3"), std::string::npos);
  EXPECT_NE(s.find("target=8"), std::string::npos);
}

TEST(PacketBuffer, TypeNames) {
  EXPECT_STREQ(to_string(PacketType::Data), "Data");
  EXPECT_STREQ(to_string(PacketType::RouteRequest), "RouteRequest");
  EXPECT_STREQ(to_string(PacketType::NetAck), "NetAck");
}

TEST(DuplicateCache, FirstObservationIsNew) {
  DuplicateCache cache(16);
  EXPECT_TRUE(cache.observe(1));
  EXPECT_FALSE(cache.observe(1));
  EXPECT_TRUE(cache.observe(2));
  EXPECT_TRUE(cache.seen(1));
  EXPECT_FALSE(cache.seen(3));
}

TEST(DuplicateCache, CountsObservations) {
  DuplicateCache cache(16);
  cache.observe(7);
  cache.observe(7);
  cache.observe(7);
  EXPECT_EQ(cache.count(7), 3u);
  EXPECT_EQ(cache.count(8), 0u);
}

TEST(DuplicateCache, EvictsOldestBeyondCapacity) {
  DuplicateCache cache(3);
  cache.observe(1);
  cache.observe(2);
  cache.observe(3);
  cache.observe(4);  // evicts 1
  EXPECT_FALSE(cache.seen(1));
  EXPECT_TRUE(cache.seen(2));
  EXPECT_TRUE(cache.seen(4));
  EXPECT_EQ(cache.size(), 3u);
  // An evicted key is "new" again.
  EXPECT_TRUE(cache.observe(1));
}

TEST(DuplicateCache, RejectsZeroCapacity) {
  EXPECT_THROW(DuplicateCache(0), rrnet::ContractViolation);
}

}  // namespace
}  // namespace rrnet::net

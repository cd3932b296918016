#include "sim/stripe_map.h"

#include <vector>

#include "gtest/gtest.h"
#include "sim/shard_map.h"

namespace abr::sim {
namespace {

TEST(StripeMapTest, SingleMemberIsIdentity) {
  StripeMap map(1, 4, 100);
  for (BlockNo b = 0; b < 100; ++b) {
    EXPECT_EQ(map.MemberOf(b), 0);
    EXPECT_EQ(map.LocalOf(b), b);
    EXPECT_EQ(map.GlobalOf(0, b), b);
  }
  EXPECT_EQ(map.LocalCount(0), 100);
}

TEST(StripeMapTest, ChunkOfOneMatchesShardMap) {
  const std::int64_t total = 137;
  const std::int32_t n = 5;
  StripeMap stripe(n, 1, total);
  ShardMap shard(n, total);
  for (BlockNo b = 0; b < total; ++b) {
    EXPECT_EQ(stripe.MemberOf(b), shard.ShardOf(b));
    EXPECT_EQ(stripe.LocalOf(b), shard.LocalOf(b));
  }
  for (std::int32_t m = 0; m < n; ++m) {
    EXPECT_EQ(stripe.LocalCount(m), shard.LocalCount(m));
  }
}

TEST(StripeMapTest, ChunksStayContiguousOnOneMember) {
  StripeMap map(3, 4, 96);
  // Blocks 0..3 on member 0, 4..7 on member 1, 8..11 on member 2, then
  // the stripe rotates back to member 0 with local numbers continuing.
  for (BlockNo b = 0; b < 4; ++b) {
    EXPECT_EQ(map.MemberOf(b), 0);
    EXPECT_EQ(map.LocalOf(b), b);
  }
  for (BlockNo b = 4; b < 8; ++b) {
    EXPECT_EQ(map.MemberOf(b), 1);
    EXPECT_EQ(map.LocalOf(b), b - 4);
  }
  for (BlockNo b = 8; b < 12; ++b) {
    EXPECT_EQ(map.MemberOf(b), 2);
    EXPECT_EQ(map.LocalOf(b), b - 8);
  }
  EXPECT_EQ(map.MemberOf(12), 0);
  EXPECT_EQ(map.LocalOf(12), 4);
}

TEST(StripeMapTest, RoundTripCoversEveryBlockExactlyOnce) {
  // A total that is not a multiple of chunk * members leaves a partial
  // tail stripe; the round trip must still be a bijection.
  const std::int64_t total = 131;
  const std::int32_t n = 4;
  const std::int64_t chunk = 3;
  StripeMap map(n, chunk, total);
  std::vector<int> seen(total, 0);
  std::int64_t covered = 0;
  for (std::int32_t m = 0; m < n; ++m) {
    const std::int64_t count = map.LocalCount(m);
    for (BlockNo local = 0; local < count; ++local) {
      const BlockNo global = map.GlobalOf(m, local);
      ASSERT_TRUE(map.Contains(global));
      EXPECT_EQ(map.MemberOf(global), m);
      EXPECT_EQ(map.LocalOf(global), local);
      ++seen[static_cast<std::size_t>(global)];
      ++covered;
    }
  }
  EXPECT_EQ(covered, total);
  for (std::int64_t b = 0; b < total; ++b) EXPECT_EQ(seen[b], 1);
}

TEST(StripeMapTest, RouteOfMatchesMemberOfAndLocalOf) {
  for (const std::int64_t chunk : {1, 3, 4}) {
    StripeMap map(4, chunk, 131);
    for (BlockNo b = 0; b < 131; ++b) {
      const StripeMap::Route r = map.RouteOf(b);
      EXPECT_EQ(r.member, map.MemberOf(b)) << "chunk " << chunk;
      EXPECT_EQ(r.local, map.LocalOf(b)) << "chunk " << chunk;
    }
  }
}

TEST(StripeMapTest, LocalCountsHandlePartialTailStripe) {
  // total = 2 full stripes (24) + a tail of 7: member 0 gets a full
  // chunk (4), member 1 the remaining 3, member 2 nothing extra.
  StripeMap map(3, 4, 31);
  EXPECT_EQ(map.LocalCount(0), 8 + 4);
  EXPECT_EQ(map.LocalCount(1), 8 + 3);
  EXPECT_EQ(map.LocalCount(2), 8 + 0);
  EXPECT_EQ(map.LocalCount(0) + map.LocalCount(1) + map.LocalCount(2), 31);
}

TEST(StripeMapTest, BoundaryBlocksRoundTrip) {
  StripeMap map(4, 8, 1024);
  for (BlockNo b : {BlockNo{0}, BlockNo{7}, BlockNo{8}, BlockNo{31},
                    BlockNo{32}, BlockNo{1023}}) {
    const std::int32_t m = map.MemberOf(b);
    EXPECT_EQ(map.GlobalOf(m, map.LocalOf(b)), b);
  }
  EXPECT_FALSE(map.Contains(-1));
  EXPECT_FALSE(map.Contains(1024));
}

}  // namespace
}  // namespace abr::sim

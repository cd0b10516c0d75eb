#include "cache/ghost_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pod {
namespace {

TEST(GhostCache, RemembersEvictions) {
  GhostCache<int> g(4);
  g.remember(1);
  EXPECT_TRUE(g.contains(1));
  EXPECT_EQ(g.size(), 1u);
}

TEST(GhostCache, ProbeConsumesAndCounts) {
  GhostCache<int> g(4);
  g.remember(1);
  EXPECT_TRUE(g.probe_and_consume(1));
  EXPECT_EQ(g.hits(), 1u);
  EXPECT_FALSE(g.contains(1));
  EXPECT_FALSE(g.probe_and_consume(1));
  EXPECT_EQ(g.hits(), 1u);
}

TEST(GhostCache, BoundedByCapacity) {
  GhostCache<int> g(2);
  g.remember(1);
  g.remember(2);
  g.remember(3);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_FALSE(g.contains(1));
  EXPECT_TRUE(g.contains(3));
}

TEST(GhostCache, EpochHitsTrackWindow) {
  GhostCache<int> g(8);
  g.remember(1);
  g.remember(2);
  (void)g.probe_and_consume(1);
  EXPECT_EQ(g.epoch_hits(), 1u);
  g.begin_epoch();
  EXPECT_EQ(g.epoch_hits(), 0u);
  (void)g.probe_and_consume(2);
  EXPECT_EQ(g.epoch_hits(), 1u);
  EXPECT_EQ(g.hits(), 2u);
}

TEST(GhostCache, ForEachMruFirst) {
  GhostCache<int> g(4);
  g.remember(1);
  g.remember(2);
  g.remember(3);
  std::vector<int> order;
  g.for_each_mru(g.size(), [&](const int& k, std::uint64_t) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(GhostCache, ForgetDropsWithoutHit) {
  GhostCache<int> g(4);
  g.remember(1);
  g.forget(1);
  EXPECT_FALSE(g.contains(1));
  EXPECT_EQ(g.hits(), 0u);
}

TEST(GhostCache, RememberSameKeyTwiceKeepsOne) {
  GhostCache<int> g(4);
  g.remember(1);
  g.remember(1);
  EXPECT_EQ(g.size(), 1u);
}

TEST(GhostCache, SetCapacityShrinks) {
  GhostCache<int> g(4);
  for (int i = 0; i < 4; ++i) g.remember(i);
  g.set_capacity(2);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.contains(3));
  EXPECT_FALSE(g.contains(0));
}

TEST(GhostCache, ClearEmpties) {
  GhostCache<int> g(4);
  g.remember(1);
  g.clear();
  EXPECT_EQ(g.size(), 0u);
}

}  // namespace
}  // namespace pod

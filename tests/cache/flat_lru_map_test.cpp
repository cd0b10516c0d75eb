// FlatLruMap's LRU contract (promotion, eviction order, resize, iteration
// order), then coverage for the flat layout's own hazards (slot recycling,
// backward-shift deletion, pointer stability across index-table growth).
#include "cache/flat_lru_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pod {
namespace {

TEST(FlatLruMap, PutGet) {
  FlatLruMap<int, std::string> m(4);
  m.put(1, "one");
  ASSERT_NE(m.get(1), nullptr);
  EXPECT_EQ(*m.get(1), "one");
  EXPECT_EQ(m.get(2), nullptr);
}

TEST(FlatLruMap, OverwriteKeepsSize) {
  FlatLruMap<int, int> m(4);
  m.put(1, 10);
  m.put(1, 20);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.get(1), 20);
}

TEST(FlatLruMap, EvictsLeastRecentlyUsed) {
  FlatLruMap<int, int> m(2);
  std::vector<int> evicted;
  auto on_evict = [&](const int& k, int&&) { evicted.push_back(k); };
  m.put(1, 1, on_evict);
  m.put(2, 2, on_evict);
  m.put(3, 3, on_evict);
  EXPECT_EQ(evicted, (std::vector<int>{1}));
  EXPECT_EQ(m.get(1), nullptr);
  EXPECT_NE(m.get(2), nullptr);
}

TEST(FlatLruMap, GetPromotesToMru) {
  FlatLruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  (void)m.get(1);  // 1 becomes MRU; 2 is now LRU
  m.put(3, 3);
  EXPECT_NE(m.get(1), nullptr);
  EXPECT_EQ(m.get(2), nullptr);
}

TEST(FlatLruMap, PeekDoesNotPromote) {
  FlatLruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  (void)m.peek(1);  // no promotion: 1 stays LRU
  m.put(3, 3);
  EXPECT_EQ(m.get(1), nullptr);
  EXPECT_NE(m.get(2), nullptr);
}

TEST(FlatLruMap, EraseRemoves) {
  FlatLruMap<int, int> m(4);
  m.put(1, 1);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlatLruMap, TakeReturnsAndRemoves) {
  FlatLruMap<int, std::string> m(4);
  m.put(1, "one");
  auto taken = m.take(1);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, "one");
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.take(1).has_value());
}

TEST(FlatLruMap, PopLruReturnsOldest) {
  FlatLruMap<int, int> m(4);
  m.put(1, 10);
  m.put(2, 20);
  auto [k, v] = m.pop_lru();
  EXPECT_EQ(k, 1);
  EXPECT_EQ(v, 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatLruMap, LruKeyReflectsOrder) {
  FlatLruMap<int, int> m(4);
  m.put(1, 1);
  m.put(2, 2);
  EXPECT_EQ(m.lru_key(), 1);
  (void)m.get(1);
  EXPECT_EQ(m.lru_key(), 2);
}

TEST(FlatLruMap, ShrinkEvictsExcess) {
  FlatLruMap<int, int> m(4);
  std::vector<int> evicted;
  for (int i = 0; i < 4; ++i) m.put(i, i);
  m.set_capacity(2, [&](const int& k, int&&) { evicted.push_back(k); });
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(evicted, (std::vector<int>{0, 1}));
  EXPECT_NE(m.get(3), nullptr);
}

TEST(FlatLruMap, GrowKeepsContents) {
  FlatLruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  m.set_capacity(10);
  EXPECT_EQ(m.size(), 2u);
  m.put(3, 3);
  EXPECT_NE(m.get(1), nullptr);
}

TEST(FlatLruMap, ZeroCapacityDropsInserts) {
  FlatLruMap<int, int> m(0);
  int evicted = 0;
  m.put(1, 1, [&](const int&, int&&) { ++evicted; });
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(m.get(1), nullptr);
}

TEST(FlatLruMap, ForEachIsMruToLru) {
  FlatLruMap<int, int> m(4);
  m.put(1, 1);
  m.put(2, 2);
  m.put(3, 3);
  (void)m.get(1);
  std::vector<int> order;
  m.for_each([&](const int& k, const int&) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(FlatLruMap, ContainsWithoutPromotion) {
  FlatLruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  EXPECT_TRUE(m.contains(1));
  m.put(3, 3);
  EXPECT_FALSE(m.contains(1));  // contains() must not have promoted
}

TEST(FlatLruMap, ClearEmpties) {
  FlatLruMap<int, int> m(4);
  m.put(1, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.get(1), nullptr);
}

TEST(FlatLruMap, StressManyInsertions) {
  FlatLruMap<std::uint64_t, std::uint64_t> m(1000);
  for (std::uint64_t i = 0; i < 100000; ++i) m.put(i, i * 2);
  EXPECT_EQ(m.size(), 1000u);
  // The newest 1000 keys survive.
  EXPECT_NE(m.get(99999), nullptr);
  EXPECT_EQ(m.get(98999), nullptr);
}

// Identity hashes (std::hash<uint64_t>) with stride-crafted keys cluster
// without the Fibonacci scramble; the probe chains plus backward-shift
// deletion must still resolve every key.
TEST(FlatLruMap, ClusteredKeysSurviveChurn) {
  FlatLruMap<std::uint64_t, std::uint64_t> m(64);
  const std::uint64_t stride = 1ull << 32;  // collide in low table bits
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 64; ++i) m.put(i * stride, round);
    for (std::uint64_t i = 0; i < 64; i += 2) m.erase(i * stride);
    for (std::uint64_t i = 1; i < 64; i += 2) {
      auto* v = m.get(i * stride);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, round);
    }
  }
}

// Value pointers returned by get() stay valid across erasure of other
// keys and freelist slot reuse (only pool growth — an insert with an empty
// freelist — may relocate entries, vector-style).
TEST(FlatLruMap, PointerStabilityAcrossEraseAndReuse) {
  FlatLruMap<int, std::uint64_t> m(100000);
  for (int i = 0; i < 1000; ++i) m.put(i, static_cast<std::uint64_t>(i));
  const std::uint64_t* p = m.peek(7);
  for (int i = 100; i < 600; ++i) m.erase(i);       // backward-shift churn
  for (int i = 2000; i < 2500; ++i) m.put(i, 1);    // reuses freed slots
  EXPECT_EQ(m.peek(7), p);
  EXPECT_EQ(*p, 7u);
}

// Interleaved insert/erase/evict exercise slot recycling: the same slot
// numbers are reused and the intrusive list must never dangle.
TEST(FlatLruMap, RecyclingChurnMatchesModel) {
  FlatLruMap<int, int> m(8);
  std::vector<int> evicted;
  auto on_evict = [&](const int& k, int&&) { evicted.push_back(k); };
  for (int i = 0; i < 1000; ++i) {
    m.put(i, i, on_evict);
    if (i % 3 == 0) m.erase(i - 1);
    if (i % 5 == 0 && !m.empty()) m.pop_lru();
  }
  EXPECT_LE(m.size(), 8u);
  std::vector<int> keys;
  m.for_each([&](const int& k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys.size(), m.size());
}

}  // namespace
}  // namespace pod

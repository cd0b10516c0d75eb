#include "engines/pod_engine.hpp"

#include <gtest/gtest.h>

#include "engine_test_util.hpp"

namespace pod {
namespace {

using testutil::EngineHarness;
using testutil::make_read;
using testutil::make_write;

PodEngine& pod_engine(EngineHarness& h) {
  return static_cast<PodEngine&>(h.engine());
}

TEST(PodEngine, BehavesLikeSelectDedupeOnPolicy) {
  EngineHarness h(EngineKind::kPod);
  (void)h.write(0, {1});
  (void)h.write(100, {1});
  EXPECT_EQ(h.engine().stats().writes_eliminated, 1u);

  (void)h.write(10, {5});
  (void)h.write(900, {6});
  (void)h.write(200, {5, 40, 6, 41});  // cat-2 scatter: untouched
  EXPECT_EQ(h.engine().stats().chunks_deduped, 1u);  // only the cat-1 block
}

TEST(PodEngine, GhostProbesSignalMissedDedup) {
  // A ghost hit is iCache's "a larger index cache would have deduped this"
  // signal, so only POD keeps a ghost list to produce it.
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 64 * IndexCache::kEntryBytes;
  EngineHarness h(EngineKind::kPod, cfg);
  for (std::uint64_t i = 0; i < 100; ++i) (void)h.write(i * 4, {300 + i});
  // Probe a *recently* evicted entry (the cache holds the newest 32 of 100
  // inserts; the ghost list remembers the most recently evicted ones).
  (void)h.write(5000, {300 + 60});
  ASSERT_NE(h.engine().index_cache(), nullptr);
  EXPECT_GT(h.engine().index_cache()->ghost_hits(), 0u);
}

TEST(PodEngine, StartsAtConfiguredPartition) {
  EngineHarness h(EngineKind::kPod);
  EXPECT_NEAR(pod_engine(h).icache().index_fraction(), 0.5, 0.01);
}

TEST(PodEngine, AdaptationRunsOnIntervalBoundaries) {
  EngineConfig cfg = testutil::small_engine_config();
  EngineHarness h(EngineKind::kPod, cfg);
  // Submit requests spaced beyond the adaptation interval (500 ms default).
  Simulator& sim = h.sim();
  for (int i = 0; i < 5; ++i) {
    OwnedRequest req = make_write(static_cast<Lba>(i) * 4,
                                  {static_cast<std::uint64_t>(i)});
    req.req().arrival = sim.now() + sec(1);
    sim.schedule_at(req.req().arrival,
                    [&, req]() { h.engine().submit(req, nullptr); });
    sim.run();
  }
  EXPECT_GE(pod_engine(h).icache().stats().adaptations, 4u);
}

TEST(PodEngine, WriteBurstGrowsIndexCache) {
  // Under index-cache pressure and a pure write workload, ghost index hits
  // dominate and memory must flow toward the index cache.
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 256 * IndexCache::kEntryBytes;  // tiny budget
  EngineHarness h(EngineKind::kPod, cfg);
  Simulator& sim = h.sim();

  SimTime t = 0;
  // Rewrite a working set larger than the index cache so misses that would
  // have hit with more memory (ghost hits) keep occurring.
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      t += ms(20);
      OwnedRequest req = make_write(i * 2, {1000 + i}, t);
      sim.schedule_at(t, [&h, req]() { h.engine().submit(req, nullptr); });
    }
  }
  sim.run();
  EXPECT_GT(pod_engine(h).icache().stats().grew_index, 0u);
  EXPECT_GT(pod_engine(h).icache().index_fraction(), 0.5);
}

TEST(PodEngine, ReadBurstGrowsReadCache) {
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 64 * kBlockSize;  // 32-block read cache at 50%
  EngineHarness h(EngineKind::kPod, cfg);
  Simulator& sim = h.sim();
  // Prime some data.
  for (std::uint64_t i = 0; i < 128; ++i) h.warm_write(i, {i + 1});
  // Read burst over a working set slightly larger than the read cache:
  // evicted blocks are re-read soon (near ghost hits), arguing for growth.
  SimTime t = 0;
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t i = 0; i < 38; ++i) {
      t += ms(20);
      IoRequest req = make_read(i, 1, t);
      sim.schedule_at(t, [&h, req]() { h.engine().submit(req, nullptr); });
    }
  }
  sim.run();
  EXPECT_GT(pod_engine(h).icache().stats().grew_read, 0u);
  EXPECT_LT(pod_engine(h).icache().index_fraction(), 0.5);
}

TEST(PodEngine, SwapTrafficLandsInSwapRegion) {
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 64 * kBlockSize;
  EngineHarness h(EngineKind::kPod, cfg);
  Simulator& sim = h.sim();
  for (std::uint64_t i = 0; i < 128; ++i) h.warm_write(i, {i + 1});
  SimTime t = 0;
  for (int round = 0; round < 30; ++round) {
    for (std::uint64_t i = 0; i < 38; ++i) {
      t += ms(25);
      IoRequest req = make_read(i, 1, t);
      sim.schedule_at(t, [&h, req]() { h.engine().submit(req, nullptr); });
    }
  }
  sim.run();
  const auto& st = pod_engine(h).icache().stats();
  EXPECT_GT(st.swap_blocks_read + st.swap_blocks_written, 0u);
}

TEST(PodEngine, NoAdaptationDuringWarmup) {
  EngineHarness h(EngineKind::kPod);
  for (std::uint64_t i = 0; i < 1000; ++i) h.warm_write(i * 2, {i});
  EXPECT_EQ(pod_engine(h).icache().stats().adaptations, 0u);
}

TEST(PodEngine, AdjustmentsNeverExceedAdaptations) {
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 64 * kBlockSize;
  EngineHarness h(EngineKind::kPod, cfg);
  Simulator& sim = h.sim();
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    t += ms(30);
    OwnedRequest req = testutil::make_write(i, {i}, t);
    sim.schedule_at(t, [&h, req]() { h.engine().submit(req, nullptr); });
  }
  sim.run();
  const ICacheStats& st = pod_engine(h).icache().stats();
  EXPECT_LE(st.grew_index + st.grew_read, st.adaptations);
}

}  // namespace
}  // namespace pod

// Ghost lists exist only under iCache: every other engine's index and
// read caches run without one, however many evictions a replay causes.
#include <gtest/gtest.h>

#include <vector>

#include "engine_test_util.hpp"

namespace pod {
namespace {

using testutil::EngineHarness;

constexpr std::uint64_t kMemory = 16 * kBlockSize;  // 1024 index entries

/// Writes 2048 distinct chunks (twice the index cache) and reads them back
/// (256x the read cache), so both caches evict throughout.
void eviction_heavy_replay(EngineHarness& h) {
  constexpr std::uint64_t kRequests = 64;
  constexpr std::uint64_t kBlocks = 32;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    std::vector<std::uint64_t> ids(kBlocks);
    for (std::uint64_t i = 0; i < kBlocks; ++i) ids[i] = r * kBlocks + i + 1;
    (void)h.write(r * kBlocks, ids);
  }
  for (std::uint64_t r = 0; r < kRequests; ++r)
    (void)h.read(r * kBlocks, static_cast<std::uint32_t>(kBlocks));
}

TEST(GhostOwnership, EnginesWithoutICacheKeepNoGhost) {
  for (const EngineKind kind :
       {EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
        EngineKind::kSelectDedupe, EngineKind::kIoDedup,
        EngineKind::kPostProcess}) {
    SCOPED_TRACE(to_string(kind));
    EngineConfig cfg = testutil::small_engine_config();
    cfg.memory_bytes = kMemory;
    EngineHarness h(kind, cfg);
    eviction_heavy_replay(h);

    // IO-Dedup replaces the block read cache with its content cache.
    const ReadCache& read = h.engine().read_cache();
    if (kind != EngineKind::kIoDedup) {
      EXPECT_GT(read.misses(), read.capacity_bytes() / kBlockSize);
    }
    EXPECT_EQ(read.ghost().capacity(), 0u);
    EXPECT_EQ(read.ghost().size(), 0u);
    EXPECT_EQ(read.ghost_hits(), 0u);
    if (const IndexCache* index = h.engine().index_cache()) {
      EXPECT_EQ(index->size_entries(), index->capacity_bytes() /
                                           IndexCache::kEntryBytes);
      EXPECT_EQ(index->ghost().capacity(), 0u);
      EXPECT_EQ(index->ghost().size(), 0u);
      EXPECT_EQ(index->ghost_hits(), 0u);
    }
  }
}

TEST(GhostOwnership, PodSizesBothGhostsToTheMemoryBudget) {
  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = kMemory;
  EngineHarness h(EngineKind::kPod, cfg);
  eviction_heavy_replay(h);

  ASSERT_NE(h.engine().index_cache(), nullptr);
  const IndexCache& index = *h.engine().index_cache();
  const ReadCache& read = h.engine().read_cache();
  EXPECT_EQ(index.ghost().capacity(), kMemory / IndexCache::kEntryBytes);
  EXPECT_EQ(read.ghost().capacity(), kMemory / kBlockSize);
  EXPECT_GT(index.ghost().size(), 0u);
  EXPECT_GT(read.ghost().size(), 0u);
}

}  // namespace
}  // namespace pod

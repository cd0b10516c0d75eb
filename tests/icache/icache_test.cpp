#include "icache/icache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

struct Fixture {
  static constexpr std::uint64_t kTotal = 64 * kBlockSize;  // 256 KiB budget

  Fixture() : index(kTotal, kTotal), read(kTotal, kTotal) {}

  ICacheConfig config() {
    ICacheConfig cfg;
    cfg.total_bytes = kTotal;
    cfg.interval = ms(100);
    cfg.step_fraction = 0.1;
    cfg.min_fraction = 0.1;
    return cfg;
  }

  IndexCache index;
  ReadCache read;
  std::vector<std::pair<OpType, std::uint64_t>> swaps;

  ICache make(ICacheConfig cfg) {
    return ICache(cfg, index, read, [this](OpType t, std::uint64_t b) {
      swaps.emplace_back(t, b);
    });
  }
  ICache make() { return make(config()); }

  /// Ghost-signal injectors. Probing right after remembering gives age ~0,
  /// so these hits always count as "near".
  void index_ghost_signal(std::uint64_t base, int n = 50) {
    for (int i = 0; i < n; ++i) {
      index.ghost().remember(fp(base + static_cast<std::uint64_t>(i)));
      EXPECT_TRUE(index.ghost_probe(fp(base + static_cast<std::uint64_t>(i))));
    }
  }
  void read_ghost_signal(Pba base, int n = 50) {
    for (int i = 0; i < n; ++i) {
      read.ghost().remember(base + static_cast<Pba>(i));
      EXPECT_TRUE(read.ghost_probe(base + static_cast<Pba>(i)));
    }
  }
};

/// Adaptation requires two consecutive epochs agreeing; drive both.
template <typename SignalFn>
void drive(ICache& ic, SignalFn&& signal) {
  for (int round = 0; round < 2; ++round) {
    signal(round);
    ic.adapt();
  }
}

TEST(ICache, InitialSplitApplied) {
  Fixture f;
  ICache ic = f.make();
  EXPECT_NEAR(ic.index_fraction(), 0.5, 0.02);
  EXPECT_EQ(ic.index_bytes() + ic.read_bytes(), Fixture::kTotal);
}

TEST(ICache, CustomInitialFraction) {
  Fixture f;
  ICacheConfig cfg = f.config();
  cfg.initial_index_fraction = 0.2;
  ICache ic = f.make(cfg);
  EXPECT_NEAR(ic.index_fraction(), 0.2, 0.02);
}

TEST(ICache, HoldWithoutGhostSignal) {
  Fixture f;
  ICache ic = f.make();
  ic.adapt();
  ic.adapt();
  EXPECT_EQ(ic.stats().adaptations, 2u);
  EXPECT_NEAR(ic.index_fraction(), 0.5, 0.02);
  EXPECT_EQ(ic.stats().grew_index + ic.stats().grew_read, 0u);
}

TEST(ICache, SingleEpochSignalDoesNotMoveMemory) {
  // The consecutive-decision filter: one noisy epoch must not repartition.
  Fixture f;
  ICache ic = f.make();
  f.index_ghost_signal(0);
  ic.adapt();
  EXPECT_EQ(ic.stats().grew_index, 0u);
  // Silence next epoch: still nothing.
  ic.adapt();
  EXPECT_EQ(ic.stats().grew_index, 0u);
}

TEST(ICache, IndexGhostHitsShiftMemoryToIndex) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.index_ghost_signal(1000u * round); });
  EXPECT_GT(ic.index_fraction(), 0.5);
  EXPECT_EQ(ic.stats().grew_index, 1u);
  // Capacities quantise to whole entries/blocks; the sum stays within one
  // quantum of the budget and never exceeds it.
  EXPECT_LE(ic.index_bytes() + ic.read_bytes(), Fixture::kTotal);
  EXPECT_GE(ic.index_bytes() + ic.read_bytes(),
            Fixture::kTotal - kBlockSize - IndexCache::kEntryBytes);
}

TEST(ICache, ReadGhostHitsShiftMemoryToRead) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.read_ghost_signal(1000u * round); });
  EXPECT_LT(ic.index_fraction(), 0.5);
  EXPECT_EQ(ic.stats().grew_read, 1u);
}

TEST(ICache, FractionBoundsRespected) {
  Fixture f;
  ICacheConfig cfg = f.config();
  cfg.min_fraction = 0.25;
  cfg.max_fraction = 0.75;
  cfg.step_fraction = 0.3;
  ICache ic = f.make(cfg);
  for (int round = 0; round < 8; ++round) {
    f.index_ghost_signal(1000u * round);
    ic.adapt();
  }
  EXPECT_LE(ic.index_fraction(), 0.76);
  for (int round = 0; round < 10; ++round) {
    f.read_ghost_signal(100000 + 1000u * round);
    ic.adapt();
  }
  EXPECT_GE(ic.index_fraction(), 0.24);
}

TEST(ICache, SpilledIndexEntriesReadmittedOnGrow) {
  Fixture f;
  ICache ic = f.make();
  // Overfill the index cache so entries spill (evict_hook -> spilled
  // store): fp(0) spills first, fp(kSpilled - 1) last.
  constexpr std::uint64_t kSpilled = 2000;
  const std::size_t cap = f.index.capacity_entries();
  for (std::uint64_t i = 0; i < cap + kSpilled; ++i) f.index.insert(fp(i), i);
  ASSERT_EQ(ic.spilled().size(), kSpilled);
  (void)f.index.lookup(fp(cap + kSpilled - 1));  // Count 1 on a live entry
  drive(ic, [&](int round) { f.index_ghost_signal(500000u + 1000u * round); });
  ASSERT_EQ(ic.stats().grew_index, 1u);
  // The index grew by one step; exactly that many of the most recently
  // spilled entries come back, newest spill first, so the last one
  // re-admitted (the oldest of them) ends at the index's MRU end.
  const std::size_t grown = f.index.capacity_entries() - cap;
  ASSERT_GT(grown, 0u);
  ASSERT_LT(grown, kSpilled);
  EXPECT_EQ(ic.stats().index_entries_readmitted, grown);
  EXPECT_EQ(ic.spilled().size(), kSpilled - grown);
  EXPECT_EQ(f.index.size_entries(), cap + grown);
  std::vector<std::uint64_t> mru;
  f.index.for_each_mru(grown + 1, [&](const Fingerprint& k, const IndexEntry& e) {
    // Re-admitted entries restart at Count 0; the live one keeps its 1.
    EXPECT_EQ(e.count, mru.size() < grown ? 0u : 1u);
    EXPECT_EQ(k, fp(e.pba));
    mru.push_back(e.pba);
  });
  std::vector<std::uint64_t> want;
  for (std::size_t i = 0; i < grown; ++i) want.push_back(kSpilled - grown + i);
  want.push_back(cap + kSpilled - 1);  // the live entry looked up above
  EXPECT_EQ(mru, want);
  // The rest stay spilled, newest first; the re-admitted keys left the
  // index ghost without counting as hits.
  std::vector<std::uint64_t> still;
  ic.spilled().for_each_mru(2, [&](const Fingerprint&, const IndexEntry& e) {
    still.push_back(e.pba);
  });
  EXPECT_EQ(still, (std::vector<std::uint64_t>{kSpilled - grown - 1,
                                               kSpilled - grown - 2}));
  for (std::size_t i = kSpilled - grown; i < kSpilled; ++i)
    EXPECT_FALSE(f.index.ghost().contains(fp(i))) << i;
  EXPECT_TRUE(f.index.ghost().contains(fp(kSpilled - grown - 1)));
  // Swap-in cost: one sequential read of the re-admitted metadata.
  const std::uint64_t blocks = bytes_to_blocks(grown * IndexCache::kEntryBytes);
  EXPECT_EQ(ic.stats().swap_blocks_read, blocks);
  ASSERT_FALSE(f.swaps.empty());
  EXPECT_EQ(f.swaps.back(), (std::pair<OpType, std::uint64_t>{OpType::kRead, blocks}));
}

TEST(ICache, StaleSpilledEntriesAreReadmittedAsIs) {
  // Known divergence (DESIGN.md, key decision 5): the swap area is never
  // cleaned when a spilled fingerprint is written again or its block is
  // freed, so a readmit can overwrite a live index entry with an older
  // PBA, or bring back an entry whose block is gone. The engines check
  // every index candidate against the block store before deduplicating,
  // so a stale entry costs a missed dedup, never a wrong mapping. This
  // test pins today's behaviour; fixing it changes simulated output.
  Fixture f;
  ICache ic = f.make();
  const std::size_t cap = f.index.capacity_entries();
  for (std::uint64_t i = 0; i < cap; ++i) f.index.insert(fp(i), i);
  f.index.insert(fp(cap), cap);          // spills fp(0) -> PBA 0
  f.index.insert(fp(cap + 1), cap + 1);  // spills fp(1) -> PBA 1
  f.index.insert(fp(0), 999);            // fp(0) rewritten: live at 999,
                                         // spills fp(2)
  f.index.invalidate(fp(1));             // fp(1)'s block freed (not cached)
  ASSERT_EQ(ic.spilled().size(), 3u);
  ASSERT_EQ(f.index.peek(fp(0))->pba, 999u);
  drive(ic, [&](int round) { f.index_ghost_signal(500000u + 1000u * round); });
  ASSERT_EQ(ic.stats().index_entries_readmitted, 3u);
  EXPECT_TRUE(ic.spilled().empty());
  // The live entry is overwritten with the stale PBA.
  ASSERT_NE(f.index.peek(fp(0)), nullptr);
  EXPECT_EQ(f.index.peek(fp(0))->pba, 0u);
  // The freed block's entry comes back.
  ASSERT_NE(f.index.peek(fp(1)), nullptr);
  EXPECT_EQ(f.index.peek(fp(1))->pba, 1u);
  ASSERT_NE(f.index.peek(fp(2)), nullptr);
  EXPECT_EQ(f.index.peek(fp(2))->pba, 2u);
  // Overwriting takes no new slot: two entries were added, not three.
  EXPECT_EQ(f.index.size_entries(), cap + 2);
}

TEST(ICache, GhostReadBlocksPrefetchedOnGrow) {
  Fixture f;
  ICache ic = f.make();
  const std::size_t cap = f.read.capacity_bytes() / kBlockSize;
  for (Pba p = 0; p < cap + 20; ++p) f.read.insert(p);
  drive(ic, [&](int round) { f.read_ghost_signal(100000 + 1000u * round); });
  EXPECT_GT(ic.stats().read_blocks_prefetched, 0u);
}

TEST(ICache, SwapTrafficCharged) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.read_ghost_signal(1000u * round); });
  // Grow read: spills index metadata (writes) + prefetches blocks (reads).
  EXPECT_FALSE(f.swaps.empty());
  bool has_write = false;
  for (const auto& [t, blocks] : f.swaps) {
    EXPECT_GT(blocks, 0u);
    if (t == OpType::kWrite) has_write = true;
  }
  EXPECT_TRUE(has_write);
}

TEST(ICache, MaybeAdaptHonoursInterval) {
  Fixture f;
  ICache ic = f.make();
  ic.maybe_adapt(ms(50));  // before the first interval boundary
  EXPECT_EQ(ic.stats().adaptations, 0u);
  ic.maybe_adapt(ms(150));
  EXPECT_EQ(ic.stats().adaptations, 1u);
  ic.maybe_adapt(ms(160));  // within the new interval
  EXPECT_EQ(ic.stats().adaptations, 1u);
  ic.maybe_adapt(ms(300));
  EXPECT_EQ(ic.stats().adaptations, 2u);
}

TEST(ICache, EpochResetsAfterAdaptation) {
  Fixture f;
  ICache ic = f.make();
  drive(ic, [&](int round) { f.index_ghost_signal(1000u * round); });
  const double frac_after = ic.index_fraction();
  ic.adapt();  // no new ghost hits this epoch: hold
  ic.adapt();
  EXPECT_DOUBLE_EQ(ic.index_fraction(), frac_after);
}

TEST(ICache, DeepReadGhostHitsDoNotGrowRead) {
  // Hits far from the eviction boundary (age > near threshold) must not
  // argue for read-cache growth.
  Fixture f;
  ICacheConfig cfg = f.config();
  ICache ic = f.make(cfg);
  // near threshold = 4 * step(6.4K->1 block... compute: 0.1*256K*4/4096=25.
  // Remember 200 pbas, then probe only the OLDEST ones: age ~200 > 25.
  // Ghost capacity is 64 blocks; near threshold = 4*step = 25 evictions.
  // Fill the ghost, then probe only the oldest entries (age ~64 > 25).
  drive(ic, [&](int round) {
    const Pba base = 10000 + 1000u * static_cast<Pba>(round);
    for (Pba p = 0; p < 64; ++p) f.read.ghost().remember(base + p);
    for (Pba p = 0; p < 10; ++p) EXPECT_TRUE(f.read.ghost_probe(base + p));
  });
  EXPECT_EQ(ic.stats().grew_read, 0u);
}

}  // namespace
}  // namespace pod

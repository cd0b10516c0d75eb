// Golden repartition trace for ICache's swap path.
//
// Drives an ICache through alternating grow-index / grow-read
// repartitions under a mixed index and read workload, and after every
// repartition folds the complete observable state of the swap path into
// one digest: the index cache's LRU order (fingerprint, PBA, Count), the
// index ghost's order with each entry's eviction sequence number plus its
// hit and near-hit counters, the read ghost likewise, the spill list's
// order and payloads, every ICacheStats counter, both capacities and the
// swap-I/O call sequence. The expected digests were recorded from the
// per-entry swap path (one spill, ghost remember, erase, forget and insert
// per moved entry), so any regrouping of that work must leave every
// structure exactly where the per-entry loop left it.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "icache/icache.hpp"

namespace pod {
namespace {

struct Digest {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  void add(std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
};

class Rig {
 public:
  Rig(std::uint64_t total, std::uint64_t max_swap_blocks)
      : index_(total / 2),
        read_(total / 2),
        ic_(config(total, max_swap_blocks), index_, read_,
            [this](OpType t, std::uint64_t b) { swaps_.emplace_back(t, b); }) {}

  /// One epoch of traffic plus a ghost signal for `grow_index`'s side,
  /// then an adaptation round.
  void epoch(bool grow_index) {
    const std::uint64_t e = epochs_++;
    // Write burst of fresh fingerprints: half one insert at a time, half
    // in request-sized batches, so both eviction paths feed the spill list.
    std::vector<Fingerprint> fps;
    std::vector<Pba> pbas;
    for (std::uint64_t i = 0; i < 600; ++i) {
      const std::uint64_t id = next_fp_++;
      if (i < 300) {
        index_.insert(fp(id), 10 * id);
      } else {
        fps.push_back(fp(id));
        pbas.push_back(10 * id);
        if (fps.size() == 16 || i == 599) {
          index_.insert_batch(fps.data(), pbas.data(), fps.size());
          fps.clear();
          pbas.clear();
        }
      }
    }
    // Rewrites of older content at new locations: some are live, some
    // sit in the spill list with their old PBA.
    for (std::uint64_t i = 0; i < 40; ++i) {
      const std::uint64_t id = (e * 97 + i * 131) % next_fp_;
      index_.insert(fp(id), 10 * id + 1 + e);
    }
    // Lookups over recent and older fingerprints; on the index side the
    // misses probe the ghost list, as an engine's dedup probe does.
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t id = next_fp_ - 1 - (i * 37 + e * 11) % next_fp_;
      if (index_.lookup(fp(id)) == nullptr && grow_index)
        index_.ghost_probe(fp(id));
    }
    // Read traffic: fresh blocks, re-reads, ghost probes on the read side.
    for (Pba i = 0; i < 40; ++i) read_.insert(next_pba_++);
    for (Pba i = 0; i < 40; ++i) {
      const Pba p = next_pba_ - 1 - (i * 7 + e * 3) % next_pba_;
      if (!read_.lookup(p) && !grow_index) read_.ghost_probe(p);
    }
    // A near-hit signal that settles this epoch's decision.
    for (std::uint64_t i = 0; i < 50; ++i) {
      if (grow_index) {
        const Fingerprint f = fp((1ull << 40) + next_signal_++);
        index_.ghost().remember(f);
        index_.ghost_probe(f);
      } else {
        const Pba p = (Pba{1} << 40) + next_signal_++;
        read_.ghost().remember(p);
        read_.ghost_probe(p);
      }
    }
    ic_.adapt();
  }

  std::uint64_t digest() const {
    Digest d;
    d.add(index_.size_entries());
    index_.for_each_mru(index_.size_entries(),
                        [&](const Fingerprint& f, const IndexEntry& e) {
                          d.add(f.prefix64());
                          d.add(e.pba);
                          d.add(e.count);
                        });
    const auto& ig = index_.ghost();
    d.add(ig.size());
    ig.for_each_mru(ig.size(), [&](const Fingerprint& f, std::uint64_t seq) {
      d.add(f.prefix64());
      d.add(seq);
    });
    d.add(ig.hits());
    d.add(ig.near_hits());
    const auto& rg = read_.ghost();
    d.add(rg.size());
    rg.for_each_mru(rg.size(), [&](const Pba& p, std::uint64_t seq) {
      d.add(p);
      d.add(seq);
    });
    d.add(rg.hits());
    d.add(rg.near_hits());
    const auto& spilled = ic_.spilled();
    d.add(spilled.size());
    spilled.for_each_mru(spilled.size(),
                         [&](const Fingerprint& f, const IndexEntry& e) {
                           d.add(f.prefix64());
                           d.add(e.pba);
                           d.add(e.count);
                         });
    const ICacheStats& s = ic_.stats();
    for (std::uint64_t v :
         {s.adaptations, s.grew_index, s.grew_read, s.swap_blocks_read,
          s.swap_blocks_written, s.index_entries_readmitted,
          s.read_blocks_prefetched})
      d.add(v);
    d.add(ic_.index_bytes());
    d.add(ic_.read_bytes());
    d.add(swaps_.size());
    for (const auto& [t, blocks] : swaps_) {
      d.add(static_cast<std::uint64_t>(t));
      d.add(blocks);
    }
    return d.h;
  }

  const ICache& icache() const { return ic_; }

 private:
  static Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

  static ICacheConfig config(std::uint64_t total, std::uint64_t max_swap_blocks) {
    ICacheConfig cfg;
    cfg.total_bytes = total;
    cfg.step_fraction = 0.1;
    cfg.max_swap_blocks = max_swap_blocks;
    return cfg;
  }

  IndexCache index_;
  ReadCache read_;
  std::vector<std::pair<OpType, std::uint64_t>> swaps_;
  ICache ic_;
  std::uint64_t epochs_ = 0;
  std::uint64_t next_fp_ = 1;
  Pba next_pba_ = 1;
  std::uint64_t next_signal_ = 0;
};

/// Runs `golden.size()` repartitions, alternating grow-index and
/// grow-read, and checks the digest after each one.
void expect_golden(std::uint64_t total, std::uint64_t max_swap_blocks,
                   const std::vector<std::uint64_t>& golden) {
  Rig rig(total, max_swap_blocks);
  for (std::size_t r = 0; r < golden.size(); ++r) {
    const bool grow_index = r % 2 == 0;
    // Two agreeing epochs move memory once (ICache's consecutive filter).
    rig.epoch(grow_index);
    rig.epoch(grow_index);
    const ICacheStats& s = rig.icache().stats();
    ASSERT_EQ(s.grew_index, r / 2 + 1) << "repartition " << r;
    ASSERT_EQ(s.grew_read, (r + 1) / 2) << "repartition " << r;
    EXPECT_EQ(rig.digest(), golden[r]) << "repartition " << r;
  }
  EXPECT_GT(rig.icache().stats().index_entries_readmitted, 0u);
  EXPECT_GT(rig.icache().stats().read_blocks_prefetched, 0u);
}

TEST(ICacheGolden, RepartitionTraceBudgetMultipleOf32) {
  // 256 KiB: 4096-entry index half, an 819-entry step, readmits bounded
  // by the step (the swap cap of 256 blocks is far above it).
  expect_golden(256 * 1024, 256, {
      0x32ae39266d85ce3eull, 0xc7ffc6861af03f9bull, 0x04dfe8f48d7b9881ull,
      0x057dcd62f3c1212eull, 0x8b7e2a62eaa003e2ull, 0x18c6a435b6a5cd09ull,
      0xcf3ea4d420f74206ull, 0x4856f5ace2d04f89ull, 0xf21487739f79c224ull,
      0xe58571c06cefb1edull, 0x7cb2dd8ed70beb3dull, 0x54d0440b81e95107ull,
      0xda065676ae6c1d74ull, 0xdb7f2fc4f5a70979ull, 0xcc015ac22a59f1a4ull,
      0x675c68b703bf2b8cull, 0x48ea60e58d3ab0ccull, 0xc2f6d6fc4a99a778ull,
      0x94d3a9b73f4464b4ull, 0x589c14ba32bface4ull, 0xdb69542e4813d79bull,
      0x0fe2504709b7c577ull, 0xf45a00d9b9776538ull, 0x06c275a27bd326a5ull,
  });
}

TEST(ICacheGolden, RepartitionTraceBudgetNotMultipleOf32) {
  // 200,003 bytes: capacities and steps round down to whole entries and
  // blocks, and a 2-block swap cap bounds each readmit below the step.
  expect_golden(200003, 2, {
      0xd3c1817aca286334ull, 0xfd83af51dadc4506ull, 0x203f70cb8c1212e5ull,
      0xff0ca3064ad6292eull, 0xbfbf329362b9f753ull, 0x28a762ca2105d3afull,
      0xd1d0146976213e13ull, 0xf7fb739244fc2a2cull, 0x31717a3bb08c4b85ull,
      0x299567574af140a1ull, 0xcab877cdf4c8719cull, 0xa33dca0f3897a449ull,
      0xd4838f62bbcf1a94ull, 0xd7821a911826b026ull, 0x82a8798de5ba7268ull,
      0x939ab92c6d439b1full, 0xb5913a82dd0c8436ull, 0x7210bd23152fda0aull,
      0xceb92bf59eaf9d3aull, 0x04432836972cd767ull, 0xcb1f852423f1f00bull,
      0x6a5e975519e89ee5ull, 0xb7dc492d2b0a56d6ull, 0xa5f5c417c290509bull,
  });
}

}  // namespace
}  // namespace pod

// ChunkingConfig defaults, the expected-chunk-size derivation, and the
// unified Chunker facade's dispatch.
#include "dedup/chunking.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hash/hash_engine.hpp"

namespace pod {
namespace {

TEST(ChunkingConfig, DefaultsToFixed) {
  const ChunkingConfig cfg;
  EXPECT_EQ(cfg.mode, ChunkingMode::kFixed);
  EXPECT_EQ(cfg.fixed_size, kBlockSize);
}

TEST(ChunkingConfig, RabinForExpectedSatisfiesInvariants) {
  for (const std::size_t expected :
       std::initializer_list<std::size_t>{128, 2048, 4096, 8192, 16384,
                                          65536}) {
    SCOPED_TRACE(expected);
    const RabinConfig rc = ChunkingConfig::rabin_for_expected(expected);
    EXPECT_GE(rc.min_chunk, rc.window);
    EXPECT_GT(rc.max_chunk, rc.min_chunk);
    EXPECT_GE(rc.mask_bits, 4u);
    EXPECT_LE(rc.mask_bits, 30u);
    RabinChunker chunker(rc);
    if (expected >= 2048) {
      // Estimate lands near the target for non-degenerate sizes.
      const std::size_t est = rc.min_chunk + (std::size_t{1} << rc.mask_bits);
      EXPECT_GE(est, expected / 2);
      EXPECT_LE(est, expected * 2);
    }
  }
}

TEST(Chunking, FacadeDispatchMatchesUnderlyingChunkers) {
  Rng rng(5);
  std::vector<std::uint8_t> data(96 * 1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  HashEngine engine;

  ChunkingConfig fixed_cfg;
  Chunker fixed_facade(fixed_cfg);
  std::vector<DataChunk> got;
  fixed_facade.chunk_into({data.data(), data.size()}, engine, got);
  const std::vector<DataChunk> want_fixed =
      FixedChunker(fixed_cfg.fixed_size).chunk({data.data(), data.size()},
                                               engine);
  ASSERT_EQ(got.size(), want_fixed.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, want_fixed[i].offset);
    EXPECT_EQ(got[i].size, want_fixed[i].size);
    EXPECT_EQ(got[i].fp, want_fixed[i].fp);
  }

  ChunkingConfig cdc_cfg;
  cdc_cfg.mode = ChunkingMode::kCdc;
  Chunker cdc_facade(cdc_cfg);
  cdc_facade.chunk_into({data.data(), data.size()}, engine, got);
  const std::vector<DataChunk> want_cdc =
      RabinChunker(cdc_cfg.rabin).chunk({data.data(), data.size()}, engine);
  ASSERT_EQ(got.size(), want_cdc.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, want_cdc[i].offset);
    EXPECT_EQ(got[i].size, want_cdc[i].size);
    EXPECT_EQ(got[i].fp, want_cdc[i].fp);
  }
}

}  // namespace
}  // namespace pod

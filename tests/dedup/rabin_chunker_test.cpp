#include "dedup/rabin_chunker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace pod {
namespace {

std::vector<std::uint8_t> random_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

TEST(RabinChunker, ChunksCoverInputExactly) {
  HashEngine engine;
  RabinChunker c;
  const auto data = random_data(200 * 1024, 1);
  const auto chunks = c.chunk(data, engine);
  ASSERT_FALSE(chunks.empty());
  std::size_t pos = 0;
  for (const auto& ch : chunks) {
    EXPECT_EQ(ch.offset, pos);
    pos += ch.size;
  }
  EXPECT_EQ(pos, data.size());
}

TEST(RabinChunker, RespectsMinMaxBounds) {
  HashEngine engine;
  RabinChunker c;
  const auto data = random_data(500 * 1024, 2);
  const auto chunks = c.chunk(data, engine);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size, c.config().min_chunk);
    EXPECT_LE(chunks[i].size, c.config().max_chunk);
  }
}

TEST(RabinChunker, AverageNearTarget) {
  HashEngine engine;
  RabinChunker c;
  const auto data = random_data(4 * 1024 * 1024, 3);
  const auto chunks = c.chunk(data, engine);
  const double avg = static_cast<double>(data.size()) / chunks.size();
  // Expected ~ min_chunk + 2^mask_bits = 2 KB + 4 KB = 6 KB; allow slack.
  EXPECT_GT(avg, 3.0 * 1024);
  EXPECT_LT(avg, 12.0 * 1024);
}

TEST(RabinChunker, DeterministicBoundaries) {
  HashEngine engine;
  RabinChunker c;
  const auto data = random_data(256 * 1024, 4);
  const auto a = c.chunk(data, engine);
  const auto b = c.chunk(data, engine);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].fp, b[i].fp);
  }
}

TEST(RabinChunker, BoundariesShiftInvariant) {
  // The defining CDC property: prepending data realigns chunk boundaries
  // after at most one chunk, so most chunks (by content) are preserved.
  HashEngine engine;
  RabinChunker c;
  const auto base = random_data(512 * 1024, 5);
  std::vector<std::uint8_t> shifted = random_data(1000, 6);
  shifted.insert(shifted.end(), base.begin(), base.end());

  const auto a = c.chunk(base, engine);
  const auto b = c.chunk(shifted, engine);

  std::set<Fingerprint> fps_a;
  for (const auto& ch : a) fps_a.insert(ch.fp);
  std::size_t shared = 0;
  for (const auto& ch : b)
    if (fps_a.count(ch.fp)) ++shared;
  // Most chunks of the shifted stream should reappear.
  EXPECT_GT(shared * 2, a.size());
}

TEST(RabinChunker, ShortInputSingleChunk) {
  HashEngine engine;
  RabinChunker c;
  const auto data = random_data(1000, 7);  // below min_chunk
  const auto chunks = c.chunk(data, engine);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size, 1000u);
}

TEST(RabinChunker, EmptyInput) {
  HashEngine engine;
  RabinChunker c;
  EXPECT_TRUE(c.chunk({}, engine).empty());
}

struct GoldenChunk {
  std::size_t offset;
  std::uint64_t fp_prefix;  ///< xx64 of the chunk's bytes
};

void expect_golden(const RabinConfig& cfg,
                   const std::vector<std::uint8_t>& data,
                   const std::vector<GoldenChunk>& want) {
  HashEngineConfig hc;
  hc.algo = HashEngineConfig::Algo::kXx64;
  HashEngine engine(hc);
  const auto got = RabinChunker(cfg).chunk(data, engine);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::size_t end =
        i + 1 < want.size() ? want[i + 1].offset : data.size();
    EXPECT_EQ(got[i].offset, want[i].offset) << "chunk " << i;
    EXPECT_EQ(got[i].size, end - want[i].offset) << "chunk " << i;
    EXPECT_EQ(got[i].fp.prefix64(), want[i].fp_prefix) << "chunk " << i;
  }
}

// Pinned cut offsets and xx64 fingerprints: any change to the boundary scan
// or the rolling-hash tables shows up here as a moved cut. The default
// config runs over random bytes with a 20 KB constant run in the middle
// (the run never matches the mask, so it forces a max_chunk cut); the
// small config cuts every few hundred bytes and ends in a short tail.
TEST(RabinChunker, GoldenCutsAndFingerprints) {
  std::vector<std::uint8_t> a = random_data(64 * 1024, 0x60D1);
  std::fill(a.begin() + 20 * 1024, a.begin() + 40 * 1024, std::uint8_t{0x33});
  expect_golden(RabinConfig{}, a,
                {{0, 0x5B93D5631EF1066FULL},
                 {5754, 0x64B89B49A7BB6C81ULL},
                 {9459, 0x0A2D7E53BD24FC43ULL},
                 {12081, 0x78BCFD21109682E7ULL},
                 {14839, 0x1016A12B227F61C9ULL},  // max_chunk cut
                 {31223, 0x258956F4917C0573ULL},
                 {44345, 0xF2AA2CE9EC971C5BULL},
                 {49534, 0x2874FF26B5D60891ULL},
                 {54271, 0x896868A0CBBB08BEULL},
                 {60449, 0x26F0E61F33B16685ULL}});

  RabinConfig small;
  small.min_chunk = 256;
  small.max_chunk = 2048;
  small.mask_bits = 6;
  expect_golden(small, random_data(6 * 1024, 0xFEED),
                {{0, 0xD38E4BF1E624F077ULL},
                 {281, 0x7B8A2B03090B1D8AULL},
                 {602, 0xFF99B38878B15827ULL},
                 {955, 0x9E5F604D5A9C17B3ULL},
                 {1269, 0x6CB40EAD05D862B4ULL},
                 {1603, 0x58A65AAB962B9246ULL},
                 {1941, 0x3B5AB3D67EEB4BD2ULL},
                 {2349, 0x62DF81111B3E8D36ULL},
                 {2697, 0x4DA1B5463008CD64ULL},
                 {2981, 0xA52A20AD6DCBF9FBULL},
                 {3420, 0x5609CDAC4C0EF6C9ULL},
                 {3761, 0x073F678979A9BEF3ULL},
                 {4099, 0x8702FFD7CC483EBBULL},
                 {4361, 0xAEAEA63D2772115FULL},
                 {4668, 0x73B0692C7F473708ULL},
                 {4961, 0x477C2883CFEDCB43ULL},
                 {5301, 0xFF4FA13FF35E4A1AULL},
                 {5677, 0x5D4C3C08B4434D5FULL},
                 {5976, 0x2F97166F3E4F69E6ULL}});  // short tail
}

TEST(RabinChunkerDeathTest, RejectsBadConfig) {
  RabinConfig bad;
  bad.min_chunk = 8;  // < window
  EXPECT_DEATH(RabinChunker{bad}, "POD_CHECK");
}

}  // namespace
}  // namespace pod

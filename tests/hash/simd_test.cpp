// SIMD/scalar equivalence: every vector tier must produce bit-identical
// xx64 digests and identical Rabin boundary decisions on randomized
// buffers, including sub-lane lengths, stripe edges, and unaligned bases.
#include "hash/simd.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "dedup/rabin_chunker.hpp"
#include "hash/hash_engine.hpp"
#include "hash/xx64.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

std::vector<SimdTier> tiers_to_test() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (max_hw_simd_tier() >= SimdTier::kSse42) tiers.push_back(SimdTier::kSse42);
  if (max_hw_simd_tier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

TEST(SimdDispatch, ActiveTierNeverExceedsHardware) {
  EXPECT_LE(static_cast<int>(active_simd_tier()),
            static_cast<int>(max_hw_simd_tier()));
}

TEST(SimdDispatch, TierNamesRoundTrip) {
  EXPECT_STREQ(to_string(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(to_string(SimdTier::kSse42), "sse");
  EXPECT_STREQ(to_string(SimdTier::kAvx2), "avx2");
}

// A tier cap selects that tier, clamped to the hardware; no cap means the
// hardware maximum (each after the scalar self-check).
TEST(SimdDispatch, CapSelectsHardwareClampedTier) {
  const SimdTier hw = max_hw_simd_tier();
  EXPECT_EQ(resolve_simd_tier(SimdTier::kScalar), SimdTier::kScalar);
  EXPECT_EQ(resolve_simd_tier(SimdTier::kSse42),
            hw >= SimdTier::kSse42 ? SimdTier::kSse42 : SimdTier::kScalar);
  EXPECT_LE(static_cast<int>(resolve_simd_tier(SimdTier::kAvx2)),
            static_cast<int>(hw));
  EXPECT_EQ(resolve_simd_tier(std::nullopt), resolve_simd_tier(hw));
}

// POD_SIMD names a tier cap (values are case-sensitive); empty means unset,
// and anything else is rejected before any work starts.
TEST(SimdDispatch, EnvOverrideParsesAndRejectsGarbage) {
  EXPECT_EQ(parse_options({{"POD_SIMD", "scalar"}}).simd, SimdTier::kScalar);
  EXPECT_EQ(parse_options({{"POD_SIMD", "sse"}}).simd, SimdTier::kSse42);
  EXPECT_EQ(parse_options({{"POD_SIMD", "avx2"}}).simd, SimdTier::kAvx2);
  EXPECT_FALSE(parse_options({}).simd.has_value());
  EXPECT_FALSE(parse_options({{"POD_SIMD", ""}}).simd.has_value());
  for (const char* bad : {"fast", "AVX2", "sse42", "2"})
    EXPECT_THROW(parse_options({{"POD_SIMD", bad}}), std::invalid_argument)
        << bad;
}

// POD_SIMD reaches the dispatcher through the shared test main, so the
// -mno-avx2 CI leg really runs its suites on the forced tier (unset: the
// hardware maximum).
TEST(SimdDispatch, ActiveTierHonoursTheSuiteCap) {
  EXPECT_EQ(active_simd_tier(), resolve_simd_tier(test_options().simd));
}

// 32-lane control-byte scan: the AVX2 kernel must agree bit-for-bit with
// the scalar reference on randomized ctrl arrays (empties, near-miss tags,
// exact tags) at every alignment.
TEST(CtrlMatch32, MatchesScalarOnRandomCtrlArrays) {
  Rng rng(0x5EED);
  std::uint8_t ctrl[256];
  for (int round = 0; round < 64; ++round) {
    for (auto& b : ctrl) {
      const std::uint64_t r = rng.next();
      // ~1/4 empty lanes; tags land in the nonzero 7-bit range like the
      // tables' ctrl_of mapping.
      b = (r & 3) == 0 ? std::uint8_t{0}
                       : static_cast<std::uint8_t>((r & 0x7F) | 1);
    }
    // Probe with an in-array tag (guaranteed eq bits when nonzero), a fixed
    // tag, and 0x7F (the zero-scramble escape value).
    const std::uint8_t tags[] = {ctrl[rng.uniform(0, 255)], std::uint8_t{0x2A},
                                 std::uint8_t{0x7F}};
    for (const std::uint8_t tag : tags) {
      if (tag == 0) continue;  // empty marker is never probed as a tag
      for (std::size_t off = 0; off + 32 <= sizeof(ctrl); off += 7) {
        const CtrlMatch32 ref = detail::ctrl_match32_scalar(ctrl + off, tag);
        const CtrlMatch32 got = ctrl_match32(ctrl + off, tag);
        ASSERT_EQ(ref.eq, got.eq) << "off=" << off << " tag=" << int(tag);
        ASSERT_EQ(ref.empty, got.empty) << "off=" << off;
        if (max_hw_simd_tier() >= SimdTier::kAvx2) {
          const CtrlMatch32 wide =
              ctrl_match32_tier(SimdTier::kAvx2, ctrl + off, tag);
          ASSERT_EQ(ref.eq, wide.eq) << "off=" << off;
          ASSERT_EQ(ref.empty, wide.empty) << "off=" << off;
        }
      }
    }
  }
}

TEST(CtrlMatch32, WideGroupsTrackActiveTier) {
  EXPECT_EQ(wide_ctrl_groups(), active_simd_tier() == SimdTier::kAvx2);
}

// Lengths 0..3x the widest lane group (3 * 32-byte stripe), plus chunk-size
// cases, at aligned and unaligned base offsets.
TEST(Xx64Bulk, MatchesScalarAcrossLengthsAndAlignment) {
  Rng rng(0xC0FFEE);
  const std::vector<std::uint8_t> buf = random_bytes(rng, 64 * 1024);
  for (SimdTier tier : tiers_to_test()) {
    for (std::size_t len = 0; len <= 96; ++len) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
        std::uint64_t ref[5], got[5];
        const std::size_t stride = len + 11;  // overlapping-free, unaligned
        for (std::size_t i = 0; i < 5; ++i)
          ref[i] = xx64(buf.data() + off + i * stride, len, 7);
        xx64_bulk_tier(tier, buf.data() + off, stride, len, 5, 7, got);
        ASSERT_EQ(0, std::memcmp(ref, got, sizeof(ref)))
            << to_string(tier) << " len=" << len << " off=" << off;
      }
    }
    // The fingerprinting shape: contiguous 4 KB chunks, stride == len.
    std::uint64_t ref[15], got[15];
    for (std::size_t i = 0; i < 15; ++i)
      ref[i] = xx64(buf.data() + i * 4096, 4096, 0);
    xx64_bulk_tier(tier, buf.data(), 4096, 4096, 15, 0, got);
    ASSERT_EQ(0, std::memcmp(ref, got, sizeof(ref))) << to_string(tier);
  }
}

TEST(Xx64Bulk, DefaultDispatchMatchesScalar) {
  Rng rng(42);
  const std::vector<std::uint8_t> buf = random_bytes(rng, 8192);
  std::uint64_t ref[2], got[2];
  detail::xx64_bulk_scalar(buf.data(), 4096, 4096, 2, 123, ref);
  xx64_bulk(buf.data(), 4096, 4096, 2, 123, got);
  EXPECT_EQ(0, std::memcmp(ref, got, sizeof(ref)));
}

class RabinScanEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    poly_ = 0xB4E6E0A1F7C25C4BULL;
    std::uint64_t pow_w1 = 1;
    for (std::size_t i = 0; i + 1 < kWindow; ++i) pow_w1 *= poly_;
    for (int b = 0; b < 256; ++b) {
      std::uint64_t z = (static_cast<std::uint64_t>(b) + 1) *
                        0x9E3779B97F4A7C15ULL;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      push_[b] = z ^ (z >> 27);
      pop_[b] = push_[b] * pow_w1;
    }
  }

  std::uint64_t window_hash(const std::uint8_t* data, std::size_t pos) const {
    std::uint64_t h = 0;
    for (std::size_t i = pos - kWindow; i < pos; ++i)
      h = h * poly_ + push_[data[i]];
    return h;
  }

  static constexpr std::size_t kWindow = 48;
  std::uint64_t poly_;
  std::uint64_t push_[256];
  std::uint64_t pop_[256];
};

TEST_F(RabinScanEquivalence, MatchesScalarOnRandomBuffers) {
  Rng rng(0xABCD);
  for (int round = 0; round < 8; ++round) {
    const std::vector<std::uint8_t> buf = random_bytes(rng, 4096);
    // Loose masks so matches occur at several densities; the widest mask
    // exercises the no-match-until-limit path.
    for (std::uint64_t mask : {std::uint64_t{0x7}, std::uint64_t{0xFF},
                               std::uint64_t{0x3FFFFF}}) {
      for (std::size_t start : {kWindow, kWindow + 1, kWindow + 2,
                                kWindow + 3, std::size_t{517}}) {
        const std::uint64_t h0 = window_hash(buf.data(), start);
        for (std::size_t limit : {start, start + 1, start + 2, start + 5,
                                  buf.size()}) {
          const RabinScanResult ref = detail::rabin_scan_scalar(
              buf.data(), start, limit, kWindow, h0, mask, poly_, push_, pop_);
          for (SimdTier tier : tiers_to_test()) {
            const RabinScanResult got =
                rabin_scan_tier(tier, buf.data(), start, limit, kWindow, h0,
                                mask, poly_, push_, pop_);
            ASSERT_EQ(ref.found, got.found)
                << to_string(tier) << " mask=" << mask << " start=" << start;
            ASSERT_EQ(ref.pos, got.pos) << to_string(tier);
            ASSERT_EQ(ref.h, got.h) << to_string(tier);
          }
        }
      }
    }
  }
}

TEST_F(RabinScanEquivalence, ImmediateMatchAndLimitStop) {
  const std::vector<std::uint8_t> buf(512, 0x5A);
  // h already matching at the start position returns without scanning.
  const std::uint64_t mask = 0;  // (h & 0) == 0 always
  for (SimdTier tier : tiers_to_test()) {
    const RabinScanResult r = rabin_scan_tier(tier, buf.data(), 100, 400,
                                              kWindow, 7, mask, poly_, push_,
                                              pop_);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(100u, r.pos);
    EXPECT_EQ(7u, r.h);
    // pos == limit: position is still checked, then the scan stops.
    const RabinScanResult stop = rabin_scan_tier(
        tier, buf.data(), 100, 100, kWindow, 1, std::uint64_t{0xFFFF}, poly_,
        push_, pop_);
    EXPECT_FALSE(stop.found);
    EXPECT_EQ(100u, stop.pos);
    EXPECT_EQ(1u, stop.h);
  }
}

// The chunker must produce identical boundaries whichever tier is active;
// run it against a scalar-forced reference implementation of the same loop.
TEST(RabinChunkerSimd, BoundariesMatchScalarReference) {
  Rng rng(0xFEED);
  RabinConfig cfg;
  cfg.min_chunk = 256;
  cfg.max_chunk = 2048;
  cfg.mask_bits = 6;
  cfg.window = 48;
  RabinChunker chunker(cfg);
  HashEngineConfig hc;
  hc.algo = HashEngineConfig::Algo::kXx64;
  HashEngine engine(hc);

  std::vector<std::uint8_t> buf(32 * 1024);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());

  const std::vector<DataChunk> chunks = chunker.chunk(buf, engine);
  ASSERT_FALSE(chunks.empty());
  // Chunks tile the buffer and respect min/max (the final chunk may be
  // short).
  std::size_t expect_off = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(expect_off, chunks[i].offset);
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].size, cfg.min_chunk);
      EXPECT_LE(chunks[i].size, cfg.max_chunk);
    }
    expect_off += chunks[i].size;
  }
  EXPECT_EQ(buf.size(), expect_off);

  // Scalar-forced rescan of each boundary: the dispatched cut must be the
  // one the scalar loop would have chosen.
  const std::uint64_t mask = (std::uint64_t{1} << cfg.mask_bits) - 1;
  RabinChunker ref_tables(cfg);  // same tables; use via friend-free rescan
  (void)ref_tables;
  std::size_t start = 0;
  for (const DataChunk& c : chunks) {
    const std::size_t remaining = buf.size() - start;
    if (remaining > cfg.min_chunk) {
      // Recompute the scalar decision directly with chunker-identical
      // tables rebuilt here.
      static constexpr std::uint64_t kPoly = 0xB4E6E0A1F7C25C4BULL;
      std::uint64_t push[256], pop[256];
      std::uint64_t pow_w1 = 1;
      for (std::size_t i = 0; i + 1 < cfg.window; ++i) pow_w1 *= kPoly;
      for (int b = 0; b < 256; ++b) {
        std::uint64_t z = (static_cast<std::uint64_t>(b) + 1) *
                          0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        push[b] = z ^ (z >> 27);
        pop[b] = push[b] * pow_w1;
      }
      std::size_t pos = start + cfg.min_chunk;
      std::uint64_t h = 0;
      for (std::size_t i = pos - cfg.window; i < pos; ++i)
        h = h * kPoly + push[buf[i]];
      const std::size_t limit = start + std::min(remaining, cfg.max_chunk);
      const RabinScanResult ref = detail::rabin_scan_scalar(
          buf.data(), pos, limit, cfg.window, h, mask, kPoly, push, pop);
      const std::size_t want =
          ref.found ? ref.pos - start : std::min(remaining, cfg.max_chunk);
      EXPECT_EQ(want, c.size) << "at offset " << start;
    }
    start += c.size;
  }
}

// Bulk fingerprinting through the engine equals per-chunk fingerprinting.
TEST(HashEngineBulk, Xx64BulkEqualsPerChunk) {
  Rng rng(99);
  std::vector<std::uint8_t> buf(17 * 4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());

  HashEngineConfig cfg;
  cfg.algo = HashEngineConfig::Algo::kXx64;
  HashEngine engine(cfg);
  std::vector<Fingerprint> bulk(17);
  engine.fingerprint_bulk(buf.data(), 4096, 17, bulk.data());
  for (std::size_t i = 0; i < 17; ++i) {
    const Fingerprint one =
        engine.fingerprint({buf.data() + i * 4096, 4096});
    EXPECT_EQ(one, bulk[i]) << "chunk " << i;
  }
  EXPECT_EQ(34u, engine.chunks_hashed());
}

TEST(HashEngineBulk, Sha1BulkEqualsPerChunk) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(3 * 512);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  HashEngine engine;  // default: SHA-1
  Fingerprint bulk[3];
  engine.fingerprint_bulk(buf.data(), 512, 3, bulk);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(engine.fingerprint({buf.data() + i * 512, 512}), bulk[i]);
}

}  // namespace
}  // namespace pod

// SIMD dispatch (tier names, caps, POD_SIMD) and the one dispatched kernel:
// the AVX2 control-byte scan must agree bit-for-bit with its scalar
// reference.
#include "hash/simd.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

TEST(SimdDispatch, ActiveTierNeverExceedsHardware) {
  EXPECT_LE(static_cast<int>(active_simd_tier()),
            static_cast<int>(max_hw_simd_tier()));
}

TEST(SimdDispatch, TierNamesRoundTrip) {
  EXPECT_STREQ(to_string(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(to_string(SimdTier::kAvx2), "avx2");
}

// A tier cap selects that tier, clamped to the hardware; no cap means the
// hardware maximum (each after the scalar self-check).
TEST(SimdDispatch, CapSelectsHardwareClampedTier) {
  const SimdTier hw = max_hw_simd_tier();
  EXPECT_EQ(resolve_simd_tier(SimdTier::kScalar), SimdTier::kScalar);
  EXPECT_LE(static_cast<int>(resolve_simd_tier(SimdTier::kAvx2)),
            static_cast<int>(hw));
  EXPECT_EQ(resolve_simd_tier(std::nullopt), resolve_simd_tier(hw));
}

// POD_SIMD names a tier cap (values are case-sensitive); empty means unset,
// and anything else is rejected before any work starts.
TEST(SimdDispatch, EnvOverrideParsesAndRejectsGarbage) {
  EXPECT_EQ(parse_options({{"POD_SIMD", "scalar"}}).simd, SimdTier::kScalar);
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

}  // namespace
}  // namespace pod

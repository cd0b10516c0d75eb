#include "hash/simd.hpp"

#include <atomic>
#include <cstddef>

#include "common/check.hpp"

namespace pod {

const char* to_string(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
  }
  return "?";
}

SimdTier max_hw_simd_tier() {
  static const SimdTier tier = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
    return SimdTier::kScalar;
  }();
  return tier;
}

namespace detail {

CtrlMatch32 ctrl_match32_scalar(const std::uint8_t* ctrl, std::uint8_t tag) {
  CtrlMatch32 m;
  for (std::size_t b = 0; b < 32; ++b) {
    if (ctrl[b] == tag) m.eq |= std::uint32_t{1} << b;
    if (ctrl[b] == 0) m.empty |= std::uint32_t{1} << b;
  }
  return m;
}

}  // namespace detail

namespace {

SimdTier clamp_to_hw(SimdTier tier) {
  const SimdTier hw = max_hw_simd_tier();
  return static_cast<int>(tier) <= static_cast<int>(hw) ? tier : hw;
}

/// Cross-checks the AVX2 control-byte scan against the scalar reference on
/// a synthetic ctrl array with empties, the probed tag, and near-miss tags
/// at every alignment, scanned from several offsets.
bool self_check(SimdTier tier) {
  std::uint8_t ctrl[96];
  for (std::size_t i = 0; i < sizeof(ctrl); ++i) {
    const std::uint8_t r = static_cast<std::uint8_t>(i * 37 + 11);
    ctrl[i] = (r % 5 == 0) ? 0 : static_cast<std::uint8_t>((r & 0x7F) | 1);
  }
  for (std::uint8_t tag : {std::uint8_t{0x51}, std::uint8_t{0x7F}, ctrl[3]}) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                            std::size_t{33}}) {
      const CtrlMatch32 ref = detail::ctrl_match32_scalar(ctrl + off, tag);
      const CtrlMatch32 got = ctrl_match32_tier(tier, ctrl + off, tag);
      if (ref.eq != got.eq || ref.empty != got.empty) return false;
    }
  }
  return true;
}

}  // namespace

SimdTier resolve_simd_tier(std::optional<SimdTier> cap) {
  SimdTier tier = cap ? clamp_to_hw(*cap) : max_hw_simd_tier();
  if (tier != SimdTier::kScalar && !self_check(tier))
    tier = SimdTier::kScalar;  // never run a kernel that diverges from scalar
  return tier;
}

namespace {
std::optional<SimdTier> g_tier_cap;
std::atomic<bool> g_tier_resolved{false};
}  // namespace

void cap_simd_tier(SimdTier cap) {
  POD_CHECK(!g_tier_resolved.load());
  g_tier_cap = cap;
}

SimdTier active_simd_tier() {
  static const SimdTier tier = [] {
    g_tier_resolved.store(true);
    return resolve_simd_tier(g_tier_cap);
  }();
  return tier;
}

CtrlMatch32 ctrl_match32_tier(SimdTier tier, const std::uint8_t* ctrl,
                              std::uint8_t tag) {
  if (clamp_to_hw(tier) == SimdTier::kAvx2)
    return detail::ctrl_match32_avx2(ctrl, tag);
  return detail::ctrl_match32_scalar(ctrl, tag);
}

CtrlMatch32 ctrl_match32(const std::uint8_t* ctrl, std::uint8_t tag) {
  return ctrl_match32_tier(active_simd_tier(), ctrl, tag);
}

bool wide_ctrl_groups() { return active_simd_tier() == SimdTier::kAvx2; }

}  // namespace pod

// Runtime-dispatched SIMD kernel for the flat maps' probe path: the 32-lane
// control-byte group scan (ctrl_match32).
//
// Dispatch model: the kernel has a scalar reference implementation plus an
// AVX2 variant compiled with a per-function `target` attribute (no global
// -mavx2 — the library stays runnable on any x86-64, and the -mno-avx2 CI
// leg keeps the fallback honest). The active tier is resolved once per
// process from CPUID, capped by the program's cap_simd_tier() call if it
// made one, and verified on first use: the AVX2 kernel is cross-checked
// against the scalar reference on a deterministic pattern, and a mismatch
// demotes the process to scalar rather than silently diverging.
//
// Fingerprinting (xx64) and the Rabin boundary scan are scalar only: no
// replay runs them, and their vector forms lost to the scalar loops on
// cache-resident data (DESIGN.md, "Runtime-dispatched SIMD kernel").
#pragma once

#include <cstdint>
#include <optional>

namespace pod {

enum class SimdTier { kScalar = 0, kAvx2 = 1 };

const char* to_string(SimdTier tier);

/// Highest tier the CPU supports (CPUID, cached).
SimdTier max_hw_simd_tier();

/// The tier kernels actually dispatch to: the hardware maximum, capped by
/// cap_simd_tier(), self-checked against scalar on first call.
SimdTier active_simd_tier();

/// Caps the process's tier at `cap` (still clamped to the hardware). A
/// program-level choice: call it once in main, before any kernel runs;
/// calling it after the tier has resolved fails a POD_CHECK.
void cap_simd_tier(SimdTier cap);

/// The uncached computation behind active_simd_tier(): the hardware
/// maximum, capped by `cap` when given, demoted to scalar if the self-check
/// fails. Test hook; production callers want active_simd_tier().
SimdTier resolve_simd_tier(std::optional<SimdTier> cap);

// ---- control-byte group scan (Swiss-table probing) --------------------
//
// Scans 32 consecutive control bytes of an open-addressing table for a
// 7-bit tag and for empties, returning one bit per lane. Used by the flat
// maps' group probes as the wide continuation after the first (inline,
// SSE2-baseline) 16-lane group finds neither the tag nor an empty. It is
// runtime-dispatched, tier-capped, and first-use self-checked against the
// scalar reference; a divergence demotes the process to scalar, which also
// disables the wide groups.

struct CtrlMatch32 {
  std::uint32_t eq = 0;     ///< bit i set: ctrl[i] == tag
  std::uint32_t empty = 0;  ///< bit i set: ctrl[i] == 0 (empty bucket)
};

CtrlMatch32 ctrl_match32(const std::uint8_t* ctrl, std::uint8_t tag);

/// Test hook: run a specific tier regardless of the active one. A tier
/// above the hardware's capability falls back to scalar.
CtrlMatch32 ctrl_match32_tier(SimdTier tier, const std::uint8_t* ctrl,
                              std::uint8_t tag);

/// True when probe loops should use the 32-lane continuation: the active
/// (clamped, self-checked) tier is AVX2. Cached by the flat maps at table
/// (re)build time so the probe hot path never touches dispatch state.
bool wide_ctrl_groups();

namespace detail {
// Per-tier entry points (the AVX2 one lives in its own TU).
CtrlMatch32 ctrl_match32_scalar(const std::uint8_t* ctrl, std::uint8_t tag);
CtrlMatch32 ctrl_match32_avx2(const std::uint8_t* ctrl, std::uint8_t tag);
}  // namespace detail

}  // namespace pod

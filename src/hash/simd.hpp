// Runtime-dispatched SIMD kernels for the compute-side of replay:
// multi-buffer xx64 fingerprinting and the Rabin rolling-hash boundary
// scan used by content-defined chunking.
//
// Dispatch model: every kernel has a scalar reference implementation plus
// SSE4.2 and AVX2 variants compiled with per-TU `target` attributes (no
// global -mavx2 — the library stays runnable on any x86-64, and the
// -mno-avx2 CI leg keeps the fallback honest). The active tier is resolved
// once per process from CPUID, capped by the program's cap_simd_tier()
// call if it made one, and verified on first use: each
// vectorized kernel is cross-checked against the scalar reference on a
// deterministic pattern, and a mismatch demotes the process to scalar
// rather than silently diverging. All variants compute bit-identical
// results — the vector math is the same arithmetic mod 2^64, evaluated
// four (or two) lanes at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace pod {

enum class SimdTier { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

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

// ---- xx64 bulk fingerprinting ----------------------------------------
//
// Hashes `n` equal-length buffers: buffer i is data + i * stride, `len`
// bytes. Results match xx64() on each buffer exactly. The equal-length
// layout is the fingerprinting case (consecutive 4 KB chunks of a write
// buffer, stride == len), which is what lets all lanes share one control
// flow.

void xx64_bulk(const std::uint8_t* data, std::size_t stride, std::size_t len,
               std::size_t n, std::uint64_t seed, std::uint64_t* out);

/// Test/bench hook: run a specific tier regardless of the active one.
/// Tiers above the hardware's capability fall back to scalar.
void xx64_bulk_tier(SimdTier tier, const std::uint8_t* data,
                    std::size_t stride, std::size_t len, std::size_t n,
                    std::uint64_t seed, std::uint64_t* out);

// ---- Rabin rolling-hash boundary scan --------------------------------
//
// Replicates the chunker's inner loop exactly: with `h` the window hash at
// `pos`, repeatedly (1) stop at `pos` if (h & mask) == mask, (2) stop
// without a match once pos >= limit, (3) roll data[pos] in and
// data[pos - window] out and advance. The vector variants evaluate the
// roll recurrence h' = h * poly + (push[in] - pop[out] * poly) for a block
// of positions via a Kogge-Stone prefix scan; since all arithmetic is mod
// 2^64 the hashes — and therefore the chosen boundary — are bit-identical
// to the scalar loop.

struct RabinScanResult {
  std::size_t pos = 0;   ///< position of the match, or the stop position
  std::uint64_t h = 0;   ///< window hash at `pos`
  bool found = false;
};

RabinScanResult rabin_scan(const std::uint8_t* data, std::size_t pos,
                           std::size_t limit, std::size_t window,
                           std::uint64_t h, std::uint64_t mask,
                           std::uint64_t poly, const std::uint64_t* push,
                           const std::uint64_t* pop);

/// Test/bench hook (see xx64_bulk_tier).
RabinScanResult rabin_scan_tier(SimdTier tier, const std::uint8_t* data,
                                std::size_t pos, std::size_t limit,
                                std::size_t window, std::uint64_t h,
                                std::uint64_t mask, std::uint64_t poly,
                                const std::uint64_t* push,
                                const std::uint64_t* pop);

// ---- control-byte group scan (Swiss-table probing) --------------------
//
// Scans 32 consecutive control bytes of an open-addressing table for a
// 7-bit tag and for empties, returning one bit per lane. Used by the flat
// maps' group probes as the wide continuation after the first (inline,
// SSE2-baseline) 16-lane group finds neither the tag nor an empty. Like
// every other kernel here it is runtime-dispatched, tier-capped, and
// first-use self-checked against the scalar reference; a divergence
// demotes the process to scalar, which also disables the wide groups.

struct CtrlMatch32 {
  std::uint32_t eq = 0;     ///< bit i set: ctrl[i] == tag
  std::uint32_t empty = 0;  ///< bit i set: ctrl[i] == 0 (empty bucket)
};

CtrlMatch32 ctrl_match32(const std::uint8_t* ctrl, std::uint8_t tag);

/// Test/bench hook (see xx64_bulk_tier).
CtrlMatch32 ctrl_match32_tier(SimdTier tier, const std::uint8_t* ctrl,
                              std::uint8_t tag);

/// True when probe loops should use the 32-lane continuation: the active
/// (clamped, self-checked) tier is AVX2. Cached by the flat maps at table
/// (re)build time so the probe hot path never touches dispatch state.
bool wide_ctrl_groups();

namespace detail {
// Per-tier entry points (defined in their own TUs; null-function-pointer
// style indirection is avoided — the dispatchers switch on tier).
void xx64_bulk_scalar(const std::uint8_t* data, std::size_t stride,
                      std::size_t len, std::size_t n, std::uint64_t seed,
                      std::uint64_t* out);
void xx64_bulk_sse(const std::uint8_t* data, std::size_t stride,
                   std::size_t len, std::size_t n, std::uint64_t seed,
                   std::uint64_t* out);
void xx64_bulk_avx2(const std::uint8_t* data, std::size_t stride,
                    std::size_t len, std::size_t n, std::uint64_t seed,
                    std::uint64_t* out);
RabinScanResult rabin_scan_scalar(const std::uint8_t* data, std::size_t pos,
                                  std::size_t limit, std::size_t window,
                                  std::uint64_t h, std::uint64_t mask,
                                  std::uint64_t poly,
                                  const std::uint64_t* push,
                                  const std::uint64_t* pop);
RabinScanResult rabin_scan_sse(const std::uint8_t* data, std::size_t pos,
                               std::size_t limit, std::size_t window,
                               std::uint64_t h, std::uint64_t mask,
                               std::uint64_t poly, const std::uint64_t* push,
                               const std::uint64_t* pop);
RabinScanResult rabin_scan_avx2(const std::uint8_t* data, std::size_t pos,
                                std::size_t limit, std::size_t window,
                                std::uint64_t h, std::uint64_t mask,
                                std::uint64_t poly, const std::uint64_t* push,
                                const std::uint64_t* pop);
CtrlMatch32 ctrl_match32_scalar(const std::uint8_t* ctrl, std::uint8_t tag);
CtrlMatch32 ctrl_match32_avx2(const std::uint8_t* ctrl, std::uint8_t tag);
}  // namespace detail

}  // namespace pod

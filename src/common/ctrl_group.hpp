// Swiss-table-style control-byte group scanning for the flat probe tables.
//
// FlatHashMap and FlatLruMap keep one control byte per bucket (0 = empty,
// else a nonzero 7-bit tag of the key's hash) in a contiguous array. A
// probe no longer walks that array byte-by-byte: it loads a 16-byte group
// starting at the key's home bucket, compares all lanes against the tag at
// once, and only touches the slot array for lanes whose control byte
// matched — so a probe costs one cache line of tags before any slot data,
// and a miss in a clean neighborhood costs no slot access at all.
//
// Sequence-point contract: the group scan visits candidates in ascending
// probe order and stops at the first empty control byte, exactly like the
// scalar `for (;;) { if empty -> miss; if tag match -> compare key; ++i }`
// loop it replaces. Candidate bits past the first empty lane are masked
// off before any key compare, so every key comparison the group probe
// performs is one the scalar loop would also perform, in the same order.
// The two paths are result-identical by construction, not just in
// distribution — which is what lets fig08 replay output stay byte-equal
// across scalar/batch/fused probe modes.
//
// ISA layering: the 16-lane first group uses SSE2 directly (SSE2 is part
// of the x86-64 baseline ABI — like memcmp's vectorization it needs no
// dispatch; a portable scalar fallback covers non-x86 builds). The 32-lane
// continuation groups for long displacement clusters go through the one
// runtime-dispatched kernel in hash/simd.* (AVX2, POD_SIMD-capped,
// self-checked) — callers pass `wide = pod::wide_ctrl_groups()` cached at
// table-build time.
//
// Wraparound: tables mirror the first kCtrlPad control bytes past the end
// (ctrl[n + i] == ctrl[i] for i < kCtrlPad, n = bucket count, n >= 16 and
// a power of two), so an unaligned group load starting at any home bucket
// reads valid lanes; candidate positions are mapped back with `& mask`.
// Group starts advance by the group width, tiling the ring with
// consecutive coverage, and the tables keep load factor <= 1/2, so some
// group always contains an empty byte and every probe terminates.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "hash/simd.hpp"

#if defined(__SSE2__) || defined(__x86_64__)
#define POD_CTRL_SSE2 1
#include <emmintrin.h>
#endif

namespace pod {

/// Lanes per first-level probe group (SSE2 register width).
inline constexpr std::size_t kCtrlGroup = 16;
/// Lanes per wide continuation group (AVX2 register width).
inline constexpr std::size_t kCtrlGroupWide = 32;
/// Mirror bytes a table keeps past its last bucket so any unaligned group
/// load — up to the wide width, starting at the last bucket — stays in
/// bounds.
inline constexpr std::size_t kCtrlPad = kCtrlGroupWide - 1;

/// 16-lane group scan result; lane i describes ctrl[i].
struct CtrlMatch16 {
  std::uint32_t eq = 0;     ///< bit i set: ctrl[i] == tag
  std::uint32_t empty = 0;  ///< bit i set: ctrl[i] == 0 (empty bucket)
};

inline CtrlMatch16 ctrl_match16(const std::uint8_t* ctrl, std::uint8_t tag) {
  CtrlMatch16 m;
#if defined(POD_CTRL_SSE2)
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  const __m128i t = _mm_set1_epi8(static_cast<char>(tag));
  m.eq = static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(g, t)));
  m.empty = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(g, _mm_setzero_si128())));
#else
  for (std::size_t b = 0; b < kCtrlGroup; ++b) {
    if (ctrl[b] == tag) m.eq |= std::uint32_t{1} << b;
    if (ctrl[b] == 0) m.empty |= std::uint32_t{1} << b;
  }
#endif
  return m;
}

/// Candidate lanes a scalar probe would key-compare: tag matches at or
/// before the first empty lane. (The empty lane itself can never be an eq
/// lane — tags are nonzero — so masking through the empty bit is safe.)
inline std::uint32_t ctrl_candidates(std::uint32_t eq, std::uint32_t empty) {
  return empty ? (eq & (empty ^ (empty - 1))) : eq;
}

struct CtrlProbeResult {
  std::size_t pos;  ///< matched bucket, or the first empty bucket
  bool found;       ///< true: `check` accepted `pos`; false: `pos` is empty
};

/// Group-probes the control array from `home` until `check(bucket)`
/// accepts a tag-matching bucket (found) or the first empty bucket ends
/// the cluster (not found; `pos` is exactly where a scalar insert probe
/// would land). `ctrl` must carry the kCtrlPad mirror and the table must
/// hold at least one empty bucket. Result-identical to the scalar linear
/// probe in all cases.
template <typename CheckFn>
inline CtrlProbeResult ctrl_probe(const std::uint8_t* ctrl, std::size_t mask,
                                  std::size_t home, std::uint8_t tag,
                                  bool wide, CheckFn&& check) {
  std::size_t i = home;
  {
    const CtrlMatch16 m = ctrl_match16(ctrl + i, tag);
    std::uint32_t cand = ctrl_candidates(m.eq, m.empty);
    while (cand != 0) {
      const std::size_t j =
          (i + static_cast<std::size_t>(std::countr_zero(cand))) & mask;
      if (check(j)) return {j, true};
      cand &= cand - 1;
    }
    if (m.empty != 0)
      return {(i + static_cast<std::size_t>(std::countr_zero(m.empty))) & mask,
              false};
    i = (i + kCtrlGroup) & mask;
  }
  // Long displacement cluster: continue in wide groups when the AVX2
  // kernel is active and the ring is at least one wide group around
  // (stride == width keeps coverage consecutive, so ordering holds).
  if (wide && mask + 1 >= kCtrlGroupWide) {
    for (;;) {
      const CtrlMatch32 m = ctrl_match32(ctrl + i, tag);
      std::uint32_t cand = ctrl_candidates(m.eq, m.empty);
      while (cand != 0) {
        const std::size_t j =
            (i + static_cast<std::size_t>(std::countr_zero(cand))) & mask;
        if (check(j)) return {j, true};
        cand &= cand - 1;
      }
      if (m.empty != 0)
        return {
            (i + static_cast<std::size_t>(std::countr_zero(m.empty))) & mask,
            false};
      i = (i + kCtrlGroupWide) & mask;
    }
  }
  for (;;) {
    const CtrlMatch16 m = ctrl_match16(ctrl + i, tag);
    std::uint32_t cand = ctrl_candidates(m.eq, m.empty);
    while (cand != 0) {
      const std::size_t j =
          (i + static_cast<std::size_t>(std::countr_zero(cand))) & mask;
      if (check(j)) return {j, true};
      cand &= cand - 1;
    }
    if (m.empty != 0)
      return {(i + static_cast<std::size_t>(std::countr_zero(m.empty))) & mask,
              false};
    i = (i + kCtrlGroup) & mask;
  }
}

}  // namespace pod

// AVX2 variant of the control-byte group scan. Compiled with a per-function
// `target` attribute so this TU builds under any global ISA flags (including
// the -mno-avx2 CI leg); the dispatcher only calls in here after a CPUID
// check.
#include "hash/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace pod::detail {

__attribute__((target("avx2"))) CtrlMatch32 ctrl_match32_avx2(
    const std::uint8_t* ctrl, std::uint8_t tag) {
  const __m256i g =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctrl));
  const __m256i t = _mm256_set1_epi8(static_cast<char>(tag));
  CtrlMatch32 m;
  m.eq = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(g, t)));
  m.empty = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(g, _mm256_setzero_si256())));
  return m;
}

}  // namespace pod::detail

#else  // non-x86: forward to scalar so the symbol still links

namespace pod::detail {

CtrlMatch32 ctrl_match32_avx2(const std::uint8_t* ctrl, std::uint8_t tag) {
  return ctrl_match32_scalar(ctrl, tag);
}

}  // namespace pod::detail

#endif

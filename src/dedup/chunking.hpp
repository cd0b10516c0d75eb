// Unified chunking facade: one switchable engine over the fixed-size and
// content-defined (Rabin) chunkers.
//
// POD's block-level prototype is fixed-4KB (the paper's model); the CDC
// mode opens the variable-size-chunk scenario on top of the runtime-
// dispatched SIMD Rabin boundary scan. Callers pick the mode and chunk
// sizes in ChunkingConfig (rabin_for_expected derives a Rabin config from
// a target average).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dedup/chunker.hpp"
#include "dedup/rabin_chunker.hpp"

namespace pod {

enum class ChunkingMode { kFixed, kCdc };

const char* to_string(ChunkingMode mode);

struct ChunkingConfig {
  ChunkingMode mode = ChunkingMode::kFixed;
  std::size_t fixed_size = kBlockSize;
  RabinConfig rabin;

  /// Derives a RabinConfig whose expected chunk size is ~`expected_bytes`:
  /// min = expected/2, mask sized so min + 2^mask_bits = expected, max =
  /// 4x expected — the conventional 0.5x/4x spread around the target.
  /// `expected_bytes` is clamped so the result satisfies RabinChunker's
  /// invariants (window <= min < max, mask_bits in [4, 30]).
  static RabinConfig rabin_for_expected(std::size_t expected_bytes);

  /// Expected chunk size this config produces (fixed_size or the Rabin
  /// min + 2^mask_bits estimate).
  std::size_t expected_chunk_bytes() const;
};

/// The switchable chunker the CDC ingest path drives. Holds both engines
/// (construction is cheap) and dispatches on the configured mode.
class Chunker {
 public:
  explicit Chunker(const ChunkingConfig& cfg);

  /// Splits + fingerprints `data` into `out` (cleared first; capacity is
  /// reused, so the steady state allocates nothing).
  void chunk_into(std::span<const std::uint8_t> data, const HashEngine& engine,
                  std::vector<DataChunk>& out);

  ChunkingMode mode() const { return cfg_.mode; }
  const ChunkingConfig& config() const { return cfg_; }

 private:
  ChunkingConfig cfg_;
  FixedChunker fixed_;
  RabinChunker rabin_;
};

}  // namespace pod

// Chunking of raw byte streams into fingerprintable chunks.
//
// POD's prototype uses fixed-size sub-file chunking at 4 KB (block-device
// granularity); FixedChunker reproduces that. A content-defined Rabin
// chunker (rabin_chunker.hpp) is provided as an extension for file-level
// workloads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "hash/hash_engine.hpp"

namespace pod {

struct DataChunk {
  std::size_t offset = 0;
  std::size_t size = 0;
  Fingerprint fp;
};

class FixedChunker {
 public:
  explicit FixedChunker(std::size_t chunk_size = kBlockSize);

  /// Splits `data` into chunk_size pieces (last may be short) and
  /// fingerprints each through `engine`.
  std::vector<DataChunk> chunk(std::span<const std::uint8_t> data,
                               const HashEngine& engine) const;

  /// Steady-state variant: clears and refills `out`, reusing its capacity
  /// — the ingest hot loop allocates nothing once `out` reaches the largest
  /// object seen.
  void chunk_into(std::span<const std::uint8_t> data, const HashEngine& engine,
                  std::vector<DataChunk>& out) const;

  std::size_t chunk_size() const { return chunk_size_; }

 private:
  std::size_t chunk_size_;
};

}  // namespace pod

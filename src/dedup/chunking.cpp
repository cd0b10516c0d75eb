#include "dedup/chunking.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace pod {

const char* to_string(ChunkingMode mode) {
  return mode == ChunkingMode::kCdc ? "cdc" : "fixed";
}

RabinConfig ChunkingConfig::rabin_for_expected(std::size_t expected_bytes) {
  RabinConfig cfg;
  // The chunker needs min_chunk >= window and mask_bits in [4, 30]; the
  // smallest honest target is therefore ~window*2 + 2^4.
  const std::size_t floor_bytes = cfg.window * 2 + 16;
  if (expected_bytes < floor_bytes) {
    POD_LOG_WARN("chunking: expected chunk %zu B below floor %zu B, clamping",
                 expected_bytes, floor_bytes);
    expected_bytes = floor_bytes;
  }
  cfg.min_chunk = expected_bytes / 2;
  cfg.max_chunk = expected_bytes * 4;
  // Round 2^mask_bits to the gap between min and the target average.
  const double gap = static_cast<double>(expected_bytes - cfg.min_chunk);
  int bits = static_cast<int>(std::lround(std::log2(gap)));
  if (bits < 4) bits = 4;
  if (bits > 30) bits = 30;
  cfg.mask_bits = static_cast<std::uint32_t>(bits);
  return cfg;
}

std::size_t ChunkingConfig::expected_chunk_bytes() const {
  if (mode == ChunkingMode::kFixed) return fixed_size;
  return rabin.min_chunk + (std::size_t{1} << rabin.mask_bits);
}

Chunker::Chunker(const ChunkingConfig& cfg)
    : cfg_(cfg), fixed_(cfg.fixed_size), rabin_(cfg.rabin) {}

void Chunker::chunk_into(std::span<const std::uint8_t> data,
                         const HashEngine& engine,
                         std::vector<DataChunk>& out) const {
  if (cfg_.mode == ChunkingMode::kCdc) {
    rabin_.chunk_into(data, engine, out);
  } else {
    fixed_.chunk_into(data, engine, out);
  }
}

}  // namespace pod

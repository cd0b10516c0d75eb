#include "dedup/rabin_chunker.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pod {

namespace {
constexpr std::uint64_t kPoly = 0xB4E6E0A1F7C25C4BULL;  // odd multiplier

std::uint64_t mix_byte(std::uint64_t b) {
  std::uint64_t z = (b + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 27);
}
}  // namespace

RabinChunker::RabinChunker(const RabinConfig& cfg) : cfg_(cfg) {
  POD_CHECK(cfg_.window >= 16);
  POD_CHECK(cfg_.min_chunk >= cfg_.window);
  POD_CHECK(cfg_.max_chunk > cfg_.min_chunk);
  POD_CHECK(cfg_.mask_bits >= 4 && cfg_.mask_bits <= 30);
  mask_ = (std::uint64_t{1} << cfg_.mask_bits) - 1;

  // The window hash is sum_i T[b_i] * kPoly^(window-1-i). Rolling one byte:
  //   h' = (h - T[out] * kPoly^(window-1)) * kPoly + T[in]
  // pop_table_ holds T[b] * kPoly^(window-1) so the roll is two mults.
  std::uint64_t pow_w1 = 1;
  for (std::size_t i = 0; i + 1 < cfg_.window; ++i) pow_w1 *= kPoly;
  for (int b = 0; b < 256; ++b) {
    push_table_[b] = mix_byte(static_cast<std::uint64_t>(b));
    pop_table_[b] = push_table_[b] * pow_w1;
  }
}

std::vector<DataChunk> RabinChunker::chunk(std::span<const std::uint8_t> data,
                                           const HashEngine& engine) const {
  std::vector<DataChunk> chunks;
  chunk_into(data, engine, chunks);
  return chunks;
}

void RabinChunker::chunk_into(std::span<const std::uint8_t> data,
                              const HashEngine& engine,
                              std::vector<DataChunk>& out) const {
  out.clear();
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t remaining = data.size() - start;
    std::size_t len = std::min(remaining, cfg_.max_chunk);
    if (remaining > cfg_.min_chunk) {
      // First admissible cut is after min_chunk bytes; prime the window
      // covering the last `window` bytes before that position.
      std::size_t pos = start + cfg_.min_chunk;
      std::uint64_t h = 0;
      for (std::size_t i = pos - cfg_.window; i < pos; ++i)
        h = h * kPoly + push_table_[data[i]];
      // Roll the window forward until its hash matches the mask; with no
      // match the cut stays at max_chunk (or the end of the data).
      const std::size_t limit = start + len;
      while ((h & mask_) != mask_ && pos < limit) {
        h = (h - pop_table_[data[pos - cfg_.window]]) * kPoly +
            push_table_[data[pos]];
        ++pos;
      }
      len = pos - start;
    }
    DataChunk c;
    c.offset = start;
    c.size = len;
    c.fp = engine.fingerprint(data.subspan(start, len));
    out.push_back(c);
    start += len;
  }
}

}  // namespace pod

#include "dedup/chunker.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pod {

FixedChunker::FixedChunker(std::size_t chunk_size) : chunk_size_(chunk_size) {
  POD_CHECK(chunk_size_ > 0);
}

std::vector<DataChunk> FixedChunker::chunk(std::span<const std::uint8_t> data,
                                           const HashEngine& engine) const {
  std::vector<DataChunk> chunks;
  chunk_into(data, engine, chunks);
  return chunks;
}

void FixedChunker::chunk_into(std::span<const std::uint8_t> data,
                              const HashEngine& engine,
                              std::vector<DataChunk>& out) const {
  out.clear();
  out.reserve(data.size() / chunk_size_ + 1);
  for (std::size_t off = 0; off < data.size(); off += chunk_size_) {
    DataChunk c;
    c.offset = off;
    c.size = std::min(chunk_size_, data.size() - off);  // last may be short
    c.fp = engine.fingerprint(data.subspan(off, c.size));
    out.push_back(c);
  }
}

}  // namespace pod

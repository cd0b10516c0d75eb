// Figure 12 (extension): dedup ratio and chunking cost vs expected chunk
// size for the content-defined-chunking engine path.
//
// The fixed-4 KB block prototype reproduces the paper; this bench opens
// the variable-size-chunk question on top of the same metadata machinery:
// a deterministic synthetic corpus of versioned objects (point edits AND
// insertions, which shift every downstream byte) is ingested through
// CdcStore at a sweep of expected chunk sizes, plus a fixed-4 KB contrast
// leg. Fixed chunking loses all alignment after an insertion; CDC
// re-synchronises within one chunk — that gap is the figure.
//
// Knobs (parsed by pod::bench::options()): POD_CDC_SWEEP_MB (corpus size,
// default 24), POD_SCALAR_PROBES=1 runs the per-chunk reference cache path
// (results must be identical; only wall-clock changes). Results append to
// POD_BENCH_JSON when set.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "util/bench_util.hpp"
#include "common/rng.hpp"
#include "dedup/cdc_store.hpp"
#include "hash/simd.hpp"

namespace {

using namespace pod;

/// Corpus: `versions` generations of one logical object. Generation 0 is
/// random; each later generation applies point edits (content changes in
/// place) and a few insertions (all downstream offsets shift). Everything
/// derives from one seed — reruns are bit-identical.
struct Corpus {
  std::vector<std::vector<std::uint8_t>> objects;
  std::uint64_t total_bytes = 0;
};

Corpus build_corpus(std::uint64_t base_bytes, int versions, Rng& rng) {
  Corpus corpus;
  std::vector<std::uint8_t> current(base_bytes);
  for (auto& b : current) b = static_cast<std::uint8_t>(rng.next());

  corpus.objects.push_back(current);
  corpus.total_bytes += current.size();

  for (int v = 1; v < versions; ++v) {
    // ~8 point edits of 256 B each: content changes, offsets preserved.
    for (int e = 0; e < 8; ++e) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::uint64_t>(current.size() - 256)));
      for (std::size_t i = 0; i < 256; ++i)
        current[at + i] = static_cast<std::uint8_t>(rng.next());
    }
    // 2 insertions of ~1 KB: every byte after the insertion point shifts,
    // which is exactly what defeats fixed-offset chunking.
    for (int ins = 0; ins < 2; ++ins) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::uint64_t>(current.size())));
      std::vector<std::uint8_t> fresh(1024);
      for (auto& b : fresh) b = static_cast<std::uint8_t>(rng.next());
      current.insert(current.begin() + static_cast<std::ptrdiff_t>(at),
                     fresh.begin(), fresh.end());
    }
    corpus.objects.push_back(current);
    corpus.total_bytes += current.size();
  }
  return corpus;
}

struct SweepPoint {
  std::string label;
  ChunkingConfig chunking;
};

struct SweepResult {
  CdcStats stats;
  double ingest_mb_s = 0.0;
};

SweepResult run_point(const SweepPoint& point, const Corpus& corpus,
                      bool scalar_probes) {
  CdcConfig cfg;
  cfg.chunking = point.chunking;
  cfg.hash.algo = HashEngineConfig::Algo::kXx64;  // SIMD bulk path
  // Capacity: every chunk unique, each block-rounded up. Blocks consumed
  // = sum ceil(size_i/4K) <= total/4K + chunk count, and chunk count is
  // bounded by total/min_chunk plus one short tail per object.
  const std::uint64_t min_chunk =
      point.chunking.mode == ChunkingMode::kCdc
          ? point.chunking.rabin.min_chunk
          : point.chunking.fixed_size;
  cfg.logical_blocks = bytes_to_blocks(corpus.total_bytes) +
                       corpus.total_bytes / min_chunk +
                       corpus.objects.size() + 64;
  cfg.index_cache_bytes = 8 * kMiB;
  cfg.ghost_bytes = 2 * kMiB;
  cfg.scalar_probes = scalar_probes;

  CdcStore store(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& obj : corpus.objects) {
    if (!store.ingest({obj.data(), obj.size()})) {
      std::fprintf(stderr, "[bench] cdc sweep: logical space exhausted\n");
      std::exit(2);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  SweepResult r;
  r.stats = store.stats();
  r.ingest_mb_s = secs > 0.0
                      ? static_cast<double>(corpus.total_bytes) / 1e6 / secs
                      : 0.0;
  return r;
}

void emit_json(const SweepPoint& point, const SweepResult& r,
               bool scalar_probes) {
  const std::string& path = pod::bench::options().bench_json;
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(
      f,
      "{\"bench\":\"fig12_cdc_sweep\",\"point\":\"%s\","
      "\"mode\":\"%s\",\"expected_chunk_bytes\":%llu,"
      "\"scalar_probes\":%s,"
      "\"chunks\":%llu,\"unique_chunks\":%llu,\"deduped_chunks\":%llu,"
      "\"logical_bytes\":%llu,\"stored_bytes\":%llu,"
      "\"padding_bytes\":%llu,\"stale_hits\":%llu,"
      "\"dedup_ratio\":%.6f,\"mean_chunk_bytes\":%.1f,"
      "\"ingest_mb_s\":%.2f,"
      "\"host\":{\"hw_threads\":%u,\"simd_tier\":\"%s\"}}\n",
      point.label.c_str(), to_string(point.chunking.mode),
      static_cast<unsigned long long>(point.chunking.expected_chunk_bytes()),
      scalar_probes ? "true" : "false",
      static_cast<unsigned long long>(r.stats.chunks),
      static_cast<unsigned long long>(r.stats.unique_chunks),
      static_cast<unsigned long long>(r.stats.deduped_chunks),
      static_cast<unsigned long long>(r.stats.logical_bytes),
      static_cast<unsigned long long>(r.stats.stored_bytes),
      static_cast<unsigned long long>(r.stats.padding_bytes),
      static_cast<unsigned long long>(r.stats.stale_hits),
      r.stats.dedup_ratio(), r.stats.mean_chunk_bytes(), r.ingest_mb_s,
      hw > 0 ? hw : 1, to_string(active_simd_tier()));
  std::fclose(f);
}

}  // namespace

int main() {
  const RunOptions& opts = pod::bench::options();
  const bool scalar_probes = opts.scalar_probes;

  // Corpus: total ~POD_CDC_SWEEP_MB across 12 versions of one object.
  const std::uint64_t total_mb = opts.cdc_sweep_mb;
  const int versions = 12;
  const std::uint64_t base_bytes = total_mb * 1000 * 1000 / versions;
  Rng rng(0x0DC0FFEE);
  const Corpus corpus = build_corpus(base_bytes, versions, rng);

  std::vector<SweepPoint> points;
  {
    SweepPoint fixed;
    fixed.label = "fixed-4K";
    fixed.chunking.mode = ChunkingMode::kFixed;
    points.push_back(fixed);
  }
  for (const std::size_t expected : {2048uz, 4096uz, 8192uz, 16384uz, 32768uz}) {
    SweepPoint p;
    p.label = "cdc-" + std::to_string(expected / 1024) + "K";
    p.chunking.mode = ChunkingMode::kCdc;
    p.chunking.rabin = ChunkingConfig::rabin_for_expected(expected);
    points.push_back(p);
  }

  pod::bench::print_header(
      "Figure 12 (extension): CDC sweep — dedup ratio vs expected chunk size",
      "corpus: " + std::to_string(versions) + " versions, " +
          std::to_string(corpus.total_bytes / 1000000) + " MB total; simd=" +
          std::string(to_string(active_simd_tier())) +
          (scalar_probes ? "; scalar cache path" : "; bulk cache path"));

  std::printf("%-10s %10s %9s %9s %10s %9s %9s %10s\n", "point", "exp-chunk",
              "chunks", "unique", "dedup", "ratio", "pad-%", "MB/s");
  for (const SweepPoint& point : points) {
    const SweepResult r = run_point(point, corpus, scalar_probes);
    const double pad_pct =
        r.stats.stored_bytes + r.stats.padding_bytes > 0
            ? 100.0 * static_cast<double>(r.stats.padding_bytes) /
                  static_cast<double>(r.stats.stored_bytes +
                                      r.stats.padding_bytes)
            : 0.0;
    std::printf("%-10s %9lluB %9llu %9llu %10llu %8.2fx %8.2f%% %10.1f\n",
                point.label.c_str(),
                static_cast<unsigned long long>(
                    point.chunking.expected_chunk_bytes()),
                static_cast<unsigned long long>(r.stats.chunks),
                static_cast<unsigned long long>(r.stats.unique_chunks),
                static_cast<unsigned long long>(r.stats.deduped_chunks),
                r.stats.dedup_ratio(), pad_pct, r.ingest_mb_s);
    emit_json(point, r, scalar_probes);
  }
  return 0;
}

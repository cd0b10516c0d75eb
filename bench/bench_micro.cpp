// Microbenchmarks (google-benchmark) for the hot substrate paths: hashing,
// cache operations, the disk service model, RAID mapping, categorisation
// and trace generation.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/flat_lru_map.hpp"
#include "cache/index_cache.hpp"
#include "common/flat_hash_map.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "dedup/categorizer.hpp"
#include "dedup/chunker.hpp"
#include "dedup/rabin_chunker.hpp"
#include "disk/hdd_model.hpp"
#include "hash/sha1.hpp"
#include "hash/simd.hpp"
#include "hash/xx64.hpp"
#include "raid/raid5.hpp"
#include "replay/replayer.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"

namespace pod {
namespace {

void BM_Sha1_4K(benchmark::State& state) {
  std::vector<std::uint8_t> data(kBlockSize, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
}
BENCHMARK(BM_Sha1_4K);

void BM_Xx64_4K(benchmark::State& state) {
  std::vector<std::uint8_t> data(kBlockSize, 0xCD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xx64(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
}
BENCHMARK(BM_Xx64_4K);

// Bulk fingerprinting of one write request's worth of chunks (16 x 4 KB,
// contiguous) through the tier-dispatch entry. Scalar is the reference
// loop; Simd runs the best tier the host supports (falls back to scalar on
// pre-AVX2 machines, so the pair's ratio reads 1.0 there, not garbage).
// CI compares the two throughputs as the SIMD regression tripwire.
void BM_Fingerprint_Tier(benchmark::State& state, SimdTier tier) {
  constexpr std::size_t kChunks = 16;
  std::vector<std::uint8_t> data(kChunks * kBlockSize);
  Rng rng(10);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  std::uint64_t out[kChunks];
  for (auto _ : state) {
    xx64_bulk_tier(tier, data.data(), kBlockSize, kBlockSize, kChunks, 0, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(to_string(tier == SimdTier::kScalar ? SimdTier::kScalar
                                                     : max_hw_simd_tier()));
}
void BM_Fingerprint_Scalar(benchmark::State& state) {
  BM_Fingerprint_Tier(state, SimdTier::kScalar);
}
BENCHMARK(BM_Fingerprint_Scalar);
void BM_Fingerprint_Simd(benchmark::State& state) {
  BM_Fingerprint_Tier(state, max_hw_simd_tier());
}
BENCHMARK(BM_Fingerprint_Simd);

// The Rabin boundary scan over a 64 KB buffer, via the same tier hook the
// chunker dispatches through. Mirrors RabinChunker's inner loop: restart
// after each boundary with a freshly primed window, mask picked for ~4 KB
// average chunks so each scan covers thousands of positions.
void BM_Chunker_Tier(benchmark::State& state, SimdTier tier) {
  constexpr std::size_t kWindow = 48;
  constexpr std::uint64_t kPoly = 0x3D4A5C3098AEF791ULL;
  constexpr std::uint64_t kMask = (1ULL << 12) - 1;
  std::uint64_t push[256], pop[256];
  std::uint64_t pow_w1 = 1;
  for (std::size_t i = 0; i + 1 < kWindow; ++i) pow_w1 *= kPoly;
  for (int b = 0; b < 256; ++b) {
    push[b] = (static_cast<std::uint64_t>(b) + 1) * 0x9E3779B97F4A7C15ULL;
    pop[b] = push[b] * pow_w1;
  }
  std::vector<std::uint8_t> data(64 * 1024);
  Rng rng(13);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    std::size_t pos = kWindow;
    while (pos < data.size()) {
      std::uint64_t h = 0;
      for (std::size_t i = pos - kWindow; i < pos; ++i)
        h = h * kPoly + push[data[i]];
      const RabinScanResult r = rabin_scan_tier(
          tier, data.data(), pos, data.size(), kWindow, h, kMask, kPoly,
          push, pop);
      benchmark::DoNotOptimize(r.h);
      pos = r.pos + kWindow;  // next scan primes behind the new start
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(to_string(tier == SimdTier::kScalar ? SimdTier::kScalar
                                                     : max_hw_simd_tier()));
}
void BM_Chunker_Scalar(benchmark::State& state) {
  BM_Chunker_Tier(state, SimdTier::kScalar);
}
BENCHMARK(BM_Chunker_Scalar);
void BM_Chunker_Simd(benchmark::State& state) {
  BM_Chunker_Tier(state, max_hw_simd_tier());
}
BENCHMARK(BM_Chunker_Simd);

void BM_FingerprintOfContentId(benchmark::State& state) {
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fingerprint::of_content_id(id++));
  }
}
BENCHMARK(BM_FingerprintOfContentId);

void BM_FlatLruMapPutGet(benchmark::State& state) {
  FlatLruMap<std::uint64_t, std::uint64_t> map(
      static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  std::uint64_t k = 0;
  for (auto _ : state) {
    map.put(k, k);
    benchmark::DoNotOptimize(map.get(rng.uniform(0, k)));
    ++k;
  }
}
BENCHMARK(BM_FlatLruMapPutGet)->Arg(1024)->Arg(65536);

// Fingerprint -> Pba probe against the flat on-disk-index table: half the
// probes hit, half miss (the bloom-negative path's companion case).
void BM_FingerprintIndexProbe(benchmark::State& state) {
  FlatHashMap<Fingerprint, Pba, FingerprintHash> table;
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i)
    table.insert_or_assign(Fingerprint::of_content_id(i), i);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.find(Fingerprint::of_content_id(rng.uniform(0, 2 * n))));
  }
}
BENCHMARK(BM_FingerprintIndexProbe)->Arg(65536)->Arg(1 << 20);

// Scalar vs two-phase batched probing of the flat fingerprint table, 16
// keys (one request's worth) per iteration, half hits / half misses. The
// batch form's win grows with table size: at 1K entries the table is
// cache-resident and the prefetches are pure overhead; at 1M entries every
// probe is a DRAM miss and the batch overlaps 16 of them.
void BM_IndexProbe_Scalar(benchmark::State& state) {
  FlatHashMap<Fingerprint, Pba, FingerprintHash> table;
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i)
    table.insert_or_assign(Fingerprint::of_content_id(i), i);
  Rng rng(12);
  std::vector<Fingerprint> keys(1 << 16);
  for (auto& k : keys) k = Fingerprint::of_content_id(rng.uniform(0, 2 * n));
  std::size_t pos = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 16; ++j)
      benchmark::DoNotOptimize(table.find(keys[pos + j]));
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexProbe_Scalar)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_IndexProbe_Batch(benchmark::State& state) {
  FlatHashMap<Fingerprint, Pba, FingerprintHash> table;
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i)
    table.insert_or_assign(Fingerprint::of_content_id(i), i);
  Rng rng(12);
  std::vector<Fingerprint> keys(1 << 16);
  for (auto& k : keys) k = Fingerprint::of_content_id(rng.uniform(0, 2 * n));
  std::size_t pos = 0;
  const Pba* out[16];
  for (auto _ : state) {
    table.lookup_batch(keys.data() + pos, 16, out);
    benchmark::DoNotOptimize(out);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexProbe_Batch)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_IndexCacheLookup(benchmark::State& state) {
  IndexCache cache(static_cast<std::uint64_t>(state.range(0)) *
                       IndexCache::kEntryBytes,
                   1024 * IndexCache::kEntryBytes);
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(state.range(0)); ++i)
    cache.insert(Fingerprint::of_content_id(i), i);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(Fingerprint::of_content_id(
        rng.uniform(0, static_cast<std::uint64_t>(state.range(0)) * 2))));
  }
}
BENCHMARK(BM_IndexCacheLookup)->Arg(65536);

// The classify hot path, all three probe modes over one 16-chunk request
// span against an at-capacity IndexCache (~half the keys miss; misses
// ghost-probe, like the engine loop). Scalar = per-chunk reference, Batch
// = two-phase lookup_batch (hashes every key twice: entry map, then ghost),
// Fused = single-pass lookup_fused (one hash, bounded-lookahead prefetch
// pipeline over both maps). The interesting args are the oversubscribed
// sizes (1<<20 and up), where the table no longer fits in LLC and the
// prefetch pipeline pays; 1<<23 (~630 MB of table+ghost) stays
// DRAM-resident even on hosts with triple-digit-MB LLCs.
namespace {
IndexCache& lookup_bench_cache(std::uint64_t entries) {
  // Shared across the three variants at each size: building a 4M-entry
  // cache dominates setup time, and the probes below don't perturb each
  // other beyond LRU order (identical key streams).
  static std::map<std::uint64_t, std::unique_ptr<IndexCache>> caches;
  auto& slot = caches[entries];
  if (!slot) {
    slot = std::make_unique<IndexCache>(entries * IndexCache::kEntryBytes,
                                        (entries / 4 + 1024) *
                                            IndexCache::kEntryBytes);
    // 2x inserts: the first half spills into the ghost list.
    for (std::uint64_t i = 0; i < 2 * entries; ++i)
      slot->insert(Fingerprint::of_content_id(i), i);
  }
  return *slot;
}

std::vector<Fingerprint>& lookup_bench_keys(std::uint64_t entries) {
  static std::map<std::uint64_t, std::vector<Fingerprint>> all;
  auto& keys = all[entries];
  if (keys.empty()) {
    Rng rng(12);
    keys.resize(1 << 16);
    // Keys span 4x the resident range: ~1/4 hit, the rest miss (and age
    // out any ghost entries early, so steady state is identical across
    // variants).
    for (auto& k : keys)
      k = Fingerprint::of_content_id(rng.uniform(0, 4 * entries));
  }
  return keys;
}
}  // namespace

void BM_IndexLookup_Scalar(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  IndexCache& cache = lookup_bench_cache(n);
  const std::vector<Fingerprint>& keys = lookup_bench_keys(n);
  std::size_t pos = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 16; ++j) {
      const IndexEntry* e = cache.lookup(keys[pos + j]);
      benchmark::DoNotOptimize(e);
      if (e == nullptr) benchmark::DoNotOptimize(cache.ghost_probe(keys[pos + j]));
    }
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexLookup_Scalar)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22)->Arg(1 << 23);

void BM_IndexLookup_Batch(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  IndexCache& cache = lookup_bench_cache(n);
  const std::vector<Fingerprint>& keys = lookup_bench_keys(n);
  std::size_t pos = 0;
  const IndexEntry* out[16];
  for (auto _ : state) {
    cache.lookup_batch({keys.data() + pos, 16}, out);
    benchmark::DoNotOptimize(out);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexLookup_Batch)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22)->Arg(1 << 23);

void BM_IndexLookup_Fused(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  IndexCache& cache = lookup_bench_cache(n);
  const std::vector<Fingerprint>& keys = lookup_bench_keys(n);
  std::size_t pos = 0;
  const IndexEntry* out[16];
  for (auto _ : state) {
    cache.lookup_fused({keys.data() + pos, 16}, out);
    benchmark::DoNotOptimize(out);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexLookup_Fused)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22)->Arg(1 << 23);

// The metadata-update floor: 16 inserts (one request's tail loop) per
// iteration into a full cache — every insert evicts into the ghost list,
// so the scalar form pays probe + LRU splice + backward-shift delete +
// ghost insert serially per chunk. The batch form tag-prefetches the
// whole request, splices the recency list once, and runs one eviction
// sweep + one ghost remember_batch.
void BM_IndexInsert_Scalar(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  IndexCache cache(entries * IndexCache::kEntryBytes,
                   entries * IndexCache::kEntryBytes);
  for (std::uint64_t i = 0; i < entries; ++i)
    cache.insert(Fingerprint::of_content_id(i + (1ull << 40)), i);
  Rng rng(34);
  std::vector<Fingerprint> keys(1 << 16);
  std::vector<Pba> pbas(1 << 16);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = Fingerprint::of_content_id(rng.uniform(0, 4 * entries));
    pbas[i] = i;
  }
  std::size_t pos = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < 16; ++j)
      cache.insert(keys[pos + j], pbas[pos + j]);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexInsert_Scalar)->Arg(1024)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22);

void BM_IndexInsert_Batch(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  IndexCache cache(entries * IndexCache::kEntryBytes,
                   entries * IndexCache::kEntryBytes);
  for (std::uint64_t i = 0; i < entries; ++i)
    cache.insert(Fingerprint::of_content_id(i + (1ull << 40)), i);
  Rng rng(34);
  std::vector<Fingerprint> keys(1 << 16);
  std::vector<Pba> pbas(1 << 16);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = Fingerprint::of_content_id(rng.uniform(0, 4 * entries));
    pbas[i] = i;
  }
  std::size_t pos = 0;
  for (auto _ : state) {
    cache.insert_batch(keys.data() + pos, pbas.data() + pos, 16);
    pos = (pos + 16) & (keys.size() - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_IndexInsert_Batch)->Arg(1024)->Arg(65536)->Arg(1 << 20)->Arg(1 << 22);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.9);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 10)->Arg(1 << 24);

void BM_HddServiceModel(benchmark::State& state) {
  HddModel model;
  Rng rng(4);
  std::uint64_t head = 0;
  for (auto _ : state) {
    const std::uint64_t block = rng.uniform(0, model.total_blocks() - 9);
    const auto svc = model.service(head, block, 8, 12345678, false);
    benchmark::DoNotOptimize(svc.total());
    head = model.cylinder_of(block);
  }
}
BENCHMARK(BM_HddServiceModel);

void BM_Raid5PlanSmallWrite(benchmark::State& state) {
  Simulator sim;
  ArrayConfig cfg;
  cfg.num_disks = 4;
  cfg.stripe_unit_blocks = 16;
  cfg.disk_geometry.total_blocks = 1 << 20;
  Raid5 raid(sim, cfg);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        raid.plan_write(rng.uniform(0, raid.capacity_blocks() - 4), 2));
  }
}
BENCHMARK(BM_Raid5PlanSmallWrite);

void BM_Categorize(benchmark::State& state) {
  Rng rng(6);
  std::vector<ChunkDup> chunks(16);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].redundant = rng.chance(0.5);
    chunks[i].pba = 1000 + i;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(categorize(chunks, 3));
  }
}
BENCHMARK(BM_Categorize);

// The whole Select-Dedupe host-side write path — probe, categorise,
// metadata spans, plan building — via warm() (functional execution, no
// event simulation), replaying a synthetic trace's writes in a loop.
// Arg: 0 = batched probes (default), 1 = scalar_probes (the retained
// per-chunk reference path); the pair's ratio is the hot-path speedup.
void BM_SelectDedupeWrite(benchmark::State& state) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 0;
  p.measured_requests = 4000;
  const Trace trace = TraceGenerator(p).generate();

  Simulator sim;
  RunSpec spec;
  spec.engine = EngineKind::kSelectDedupe;
  spec.engine_cfg.logical_blocks = p.volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  spec.engine_cfg.scalar_probes = state.range(0) != 0;
  std::unique_ptr<Volume> volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);

  std::size_t i = 0;
  std::int64_t chunks = 0;
  for (auto _ : state) {
    const IoRequest& req = trace.requests[i];
    if (++i == trace.requests.size()) i = 0;
    if (req.type != OpType::kWrite) continue;
    engine->warm(req);
    chunks += req.nblocks;
  }
  state.SetItemsProcessed(chunks);
}
BENCHMARK(BM_SelectDedupeWrite)->Arg(0)->Arg(1);

void BM_FixedChunk64K(benchmark::State& state) {
  HashEngine engine;
  FixedChunker chunker;
  std::vector<std::uint8_t> data(64 * 1024);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(data, engine));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_FixedChunk64K);

void BM_RabinChunk64K(benchmark::State& state) {
  HashEngine engine;
  RabinChunker chunker;
  std::vector<std::uint8_t> data(64 * 1024);
  Rng rng(8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(data, engine));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RabinChunk64K);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadProfile p = tiny_test_profile();
    p.measured_requests = 2000;
    p.warmup_requests = 0;
    benchmark::DoNotOptimize(TraceGenerator(p).generate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_TraceGeneration);

// Raw event push/pop throughput at a steady queue depth — isolates the
// binary-heap + pooled-slot event path from simulator bookkeeping.
void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  const int depth = static_cast<int>(state.range(0));
  SimTime now = 0;
  std::uint64_t counter = 0;
  for (int i = 0; i < depth; ++i)
    q.push(now + i, [&counter] { ++counter; });
  for (auto _ : state) {
    auto [at, fn] = q.pop();
    fn();
    now = at;
    q.push(now + depth, [&counter] { ++counter; });
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(16)->Arg(1024);

/// Replays a small POD trace per iteration under `spec`'s observation
/// settings (telemetry and anatomy off unless the caller turns them on).
void replay_small_pod_trace(benchmark::State& state, RunSpec spec) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 500;
  p.measured_requests = 2000;
  const Trace t = TraceGenerator(p).generate();
  spec.engine = EngineKind::kPod;
  spec.engine_cfg.logical_blocks = p.volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  for (auto _ : state) benchmark::DoNotOptimize(run_replay(spec, t));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}

// Telemetry-off overhead tripwire: with no sink configured, every
// instrumentation site reduces to one branch on a null pointer, so a full
// replay must cost what it did before the telemetry subsystem existed.
// Compare against BM_ReplayTelemetryOn for the enabled cost.
void BM_ReplayTelemetryOff(benchmark::State& state) {
  replay_small_pod_trace(state, RunSpec{});
}
BENCHMARK(BM_ReplayTelemetryOff);

void BM_ReplayTelemetryOn(benchmark::State& state) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "pod_bench_telemetry";
  std::filesystem::create_directories(dir);
  RunSpec spec;
  spec.telemetry.trace_events_path = dir + "/trace.json";
  spec.telemetry.timeseries_path = dir + "/series.csv";
  replay_small_pod_trace(state, spec);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplayTelemetryOn);

// Latency-anatomy overhead pair: attribution inherits the telemetry
// contract, so the off path must again be one null-pointer branch per
// charge site. Compare Off vs On for the enabled attribution cost.
void BM_ReplayAnatomyOff(benchmark::State& state) {
  replay_small_pod_trace(state, RunSpec{});
}
BENCHMARK(BM_ReplayAnatomyOff);

void BM_ReplayAnatomyOn(benchmark::State& state) {
  RunSpec spec;
  spec.anatomy = LatencyAnatomy::Config{.tail_k = 64};
  replay_small_pod_trace(state, spec);
}
BENCHMARK(BM_ReplayAnatomyOn);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int counter = 0;
    for (int i = 0; i < 10000; ++i)
      sim.schedule_at(i, [&counter] { ++counter; });
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace
}  // namespace pod

BENCHMARK_MAIN();

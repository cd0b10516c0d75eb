// The lookup-side hot paths must be observationally identical across all
// three probe modes: scalar (the retained per-chunk reference loop),
// batch (the two-phase prefetched lookup_batch pass), and fused (the
// single-pass lookup_fused / tagged-API default) — same latencies, same
// dedup decisions, same disk traffic for every engine.
// EngineConfig::scalar_probes and ::fused_probes exist precisely to keep
// this comparison compilable and cheap to run.
#include <gtest/gtest.h>

#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

Trace small_trace(std::size_t measured = 2000) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 1000;
  p.measured_requests = measured;
  return TraceGenerator(p).generate();
}

enum class ProbeMode { kScalar, kBatch, kFused };

RunSpec spec_for(EngineKind kind, ProbeMode mode) {
  RunSpec spec = test_spec();
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  spec.engine_cfg.scalar_probes = mode == ProbeMode::kScalar;
  spec.engine_cfg.fused_probes = mode == ProbeMode::kFused;
  return spec;
}

const std::vector<EngineKind> kAllEngines = {
    EngineKind::kNative,       EngineKind::kFullDedupe,
    EngineKind::kIDedup,       EngineKind::kSelectDedupe,
    EngineKind::kPod,          EngineKind::kIoDedup,
};

// Engines that route write probes through IndexCache::lookup_batch.
// Full-Dedupe interleaves inserts with lookups (on-disk hits promote into
// the cache mid-request) and so keeps its sequential loop; Native and
// IO-Dedup have no fingerprint index cache at all.
bool uses_batch_probes(EngineKind kind) {
  return kind == EngineKind::kIDedup || kind == EngineKind::kSelectDedupe ||
         kind == EngineKind::kPod;
}

TEST(BatchEquivalence, AllThreeProbeModesMatchForEveryEngine) {
  const Trace t = small_trace();
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult s = run_replay(spec_for(kind, ProbeMode::kScalar), t);
    for (ProbeMode mode : {ProbeMode::kBatch, ProbeMode::kFused}) {
      SCOPED_TRACE(mode == ProbeMode::kBatch ? "batch" : "fused");
      const ReplayResult b = run_replay(spec_for(kind, mode), t);

      EXPECT_EQ(b.all.count(), s.all.count());
      EXPECT_DOUBLE_EQ(b.mean_ms(), s.mean_ms());
      EXPECT_DOUBLE_EQ(b.read_mean_ms(), s.read_mean_ms());
      EXPECT_DOUBLE_EQ(b.write_mean_ms(), s.write_mean_ms());
      EXPECT_DOUBLE_EQ(b.all.percentile_ms(0.99), s.all.percentile_ms(0.99));
      EXPECT_EQ(b.makespan, s.makespan);
      EXPECT_EQ(b.physical_blocks_used, s.physical_blocks_used);
      EXPECT_EQ(b.measured.writes_eliminated, s.measured.writes_eliminated);
      EXPECT_EQ(b.measured.chunks_deduped, s.measured.chunks_deduped);
      EXPECT_EQ(b.measured.chunks_written, s.measured.chunks_written);
      EXPECT_EQ(b.disk_reads, s.disk_reads);
      EXPECT_EQ(b.disk_writes, s.disk_writes);
      EXPECT_DOUBLE_EQ(b.index_cache_hit_rate, s.index_cache_hit_rate);
      EXPECT_DOUBLE_EQ(b.read_cache_hit_rate, s.read_cache_hit_rate);

      // The scalar switch must actually route around the span probes…
      EXPECT_EQ(s.batch_probes, 0u);
      // …and both span modes must actually exercise them where they apply
      // (the fused pass keeps the batch_probes accounting).
      if (uses_batch_probes(kind)) EXPECT_GT(b.batch_probes, 0u);
      else EXPECT_EQ(b.batch_probes, 0u);
    }
  }
}

TEST(BatchEquivalence, ScratchBytesAreBoundedByRequestShapeNotTraceLength) {
  // The per-engine WriteScratch arena must stop growing once it has seen
  // the largest request: doubling the number of measured requests (same
  // request-size distribution) may not change its final footprint. This is
  // the zero-steady-state-allocation tripwire in miniature.
  const Trace short_t = small_trace(2000);
  const Trace long_t = small_trace(4000);
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult a = run_replay(spec_for(kind, ProbeMode::kFused), short_t);
    const ReplayResult b = run_replay(spec_for(kind, ProbeMode::kFused), long_t);
    EXPECT_GT(a.scratch_bytes, 0u);
    EXPECT_EQ(a.scratch_bytes, b.scratch_bytes);
  }
}

}  // namespace
}  // namespace pod

// End-to-end fault injection through the replay stack.
//
// ISSUE acceptance tests: (1) an attached-but-quiet injector leaves every
// replayed byte identical to a run with no injector at all, per engine;
// (2) a fixed seed makes faulty runs exactly reproducible; (3) a mid-replay
// whole-disk failure completes the replay in degraded mode with costed
// reconstruction reads; (4) per-op IoStatus propagates Volume -> engine ->
// ReplayResult, including the dedup blast-radius accounting.
#include <gtest/gtest.h>

#include <vector>

#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

Trace small_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 1500;
  p.measured_requests = 2500;
  return TraceGenerator(p).generate();
}

RunSpec base_spec(EngineKind kind) {
  RunSpec spec = test_spec();
  spec.engine = kind;
  spec.raid = RaidLevel::kRaid5;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

void expect_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.all.count(), b.all.count());
  EXPECT_EQ(a.all.stats().sum(), b.all.stats().sum());
  EXPECT_EQ(a.reads.stats().sum(), b.reads.stats().sum());
  EXPECT_EQ(a.writes.stats().sum(), b.writes.stats().sum());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.physical_blocks_used, b.physical_blocks_used);
  EXPECT_EQ(a.measured.writes_eliminated, b.measured.writes_eliminated);
}

TEST(FaultReplay, QuietInjectorIsByteIdenticalPerEngine) {
  const Trace trace = small_trace();
  const std::vector<EngineKind> kinds = {
      EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
      EngineKind::kSelectDedupe, EngineKind::kPod};
  for (EngineKind kind : kinds) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult plain = run_replay(base_spec(kind), trace);

    RunSpec spec = base_spec(kind);
    spec.array_cfg.fault.enabled = true;  // injector attached, all rates 0
    const ReplayResult quiet = run_replay(spec, trace);

    expect_identical(plain, quiet);
    EXPECT_FALSE(plain.fault.enabled);
    EXPECT_TRUE(quiet.fault.enabled);
    EXPECT_EQ(quiet.fault.injected.media_errors, 0u);
    EXPECT_EQ(quiet.fault.injected.transients, 0u);
    EXPECT_EQ(quiet.measured.failed_requests, 0u);
  }
}

TEST(FaultReplay, FixedSeedFaultyRunsAreIdentical) {
  const Trace trace = small_trace();
  RunSpec spec = base_spec(EngineKind::kSelectDedupe);
  spec.array_cfg.fault.enabled = true;
  spec.array_cfg.fault.seed = 99;
  spec.array_cfg.fault.media_error_rate = 0.002;
  spec.array_cfg.fault.transient_rate = 0.01;

  const ReplayResult a = run_replay(spec, trace);
  const ReplayResult b = run_replay(spec, trace);
  expect_identical(a, b);
  EXPECT_EQ(a.fault.injected.media_errors, b.fault.injected.media_errors);
  EXPECT_EQ(a.fault.injected.transients, b.fault.injected.transients);
  EXPECT_EQ(a.fault.injected.timeouts, b.fault.injected.timeouts);
  EXPECT_EQ(a.measured.media_error_ops, b.measured.media_error_ops);
  EXPECT_EQ(a.measured.damaged_logical_blocks,
            b.measured.damaged_logical_blocks);
  EXPECT_GT(a.fault.injected.transients, 0u);
}

TEST(FaultReplay, TransientsDelayButCompleteEveryRequest) {
  const Trace trace = small_trace();
  const std::size_t measured = trace.requests.size() - trace.warmup_count;

  const ReplayResult clean = run_replay(base_spec(EngineKind::kNative), trace);

  RunSpec spec = base_spec(EngineKind::kNative);
  spec.array_cfg.fault.enabled = true;
  spec.array_cfg.fault.transient_rate = 0.05;
  const ReplayResult faulty = run_replay(spec, trace);

  EXPECT_EQ(clean.all.count(), measured);
  EXPECT_EQ(faulty.all.count(), measured);  // retries never lose requests
  EXPECT_GT(faulty.fault.injected.transients, 0u);
  EXPECT_GT(faulty.fault.injected.transient_retries, 0u);
  // Retry backoff costs simulated time.
  EXPECT_GT(faulty.all.stats().sum(), clean.all.stats().sum());
}

TEST(FaultReplay, MediaErrorsPropagateToResultWithBlastRadius) {
  const Trace trace = small_trace();
  RunSpec spec = base_spec(EngineKind::kSelectDedupe);
  spec.array_cfg.fault.enabled = true;
  spec.array_cfg.fault.media_error_rate = 0.01;
  const ReplayResult r = run_replay(spec, trace);

  EXPECT_TRUE(r.fault.enabled);
  EXPECT_GT(r.fault.injected.media_errors, 0u);
  // Volume -> engine -> ReplayResult propagation.
  EXPECT_GT(r.measured.media_error_ops, 0u);
  EXPECT_GT(r.measured.failed_requests, 0u);
  // Dedup blast radius: damaged physical blocks exist, and shared blocks
  // amplify the logical loss (logical >= physical always; the workload has
  // duplicates, so some refcount > 1 block is eventually hit).
  EXPECT_GT(r.measured.damaged_physical_blocks, 0u);
  EXPECT_GE(r.measured.damaged_logical_blocks,
            r.measured.damaged_physical_blocks);
}

TEST(FaultReplay, MidReplayDiskFailureCompletesDegraded) {
  const Trace trace = small_trace();
  const std::size_t measured = trace.requests.size() - trace.warmup_count;

  // Baseline run to learn the makespan, then fail a member mid-replay.
  const ReplayResult clean =
      run_replay(base_spec(EngineKind::kSelectDedupe), trace);
  ASSERT_GT(clean.makespan, 0);

  RunSpec spec = base_spec(EngineKind::kSelectDedupe);
  spec.array_cfg.fault.enabled = true;
  spec.array_cfg.fault.fail_disk = 1;
  spec.array_cfg.fault.fail_at = clean.makespan / 4;
  spec.array_cfg.fault.auto_rebuild = false;  // stay degraded to the end
  const ReplayResult r = run_replay(spec, trace);

  EXPECT_EQ(r.all.count(), measured);  // every request still completes
  EXPECT_EQ(r.fault.injected.disk_failures, 1u);
  // Degraded service is costed: reconstruction reads hit the survivors.
  EXPECT_GT(r.volume_counters.reconstruction_reads, 0u);
  EXPECT_EQ(r.volume_counters.rebuild_rows, 0u);
}

TEST(FaultReplay, AutoRebuildSweepsRowsOntoSpare) {
  const Trace trace = small_trace();
  const ReplayResult clean =
      run_replay(base_spec(EngineKind::kNative), trace);

  RunSpec spec = base_spec(EngineKind::kNative);
  spec.array_cfg.fault.enabled = true;
  spec.array_cfg.fault.fail_disk = 2;
  spec.array_cfg.fault.fail_at = clean.makespan / 8;
  spec.array_cfg.fault.auto_rebuild = true;
  spec.array_cfg.fault.rebuild_interval = us(100);
  const ReplayResult r = run_replay(spec, trace);

  EXPECT_EQ(r.fault.injected.disk_failures, 1u);
  EXPECT_GT(r.volume_counters.rebuild_rows, 0u);
}

TEST(FaultReplay, JournalRecordsExportedThroughResult) {
  const Trace trace = small_trace();
  RunSpec spec = base_spec(EngineKind::kFullDedupe);
  spec.engine_cfg.journal_metadata = true;
  const ReplayResult r = run_replay(spec, trace);

  EXPECT_GT(r.fault.journal_records, 0u);
  EXPECT_EQ(r.fault.journal_lost, 0u);

  // Journaling is observation-only: results match the unjournaled run.
  RunSpec plain = base_spec(EngineKind::kFullDedupe);
  expect_identical(run_replay(plain, trace), r);
}

}  // namespace
}  // namespace pod

#include "replay/replayer.hpp"

#include <gtest/gtest.h>

#include "synth/generator.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

Trace tiny_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 1500;
  p.warmup_requests = 1500;
  return TraceGenerator(p).generate();
}

RunSpec tiny_spec(EngineKind kind) {
  RunSpec spec = test_spec();
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

TEST(Replayer, AllRequestsMeasured) {
  const Trace t = tiny_trace();
  const ReplayResult r = run_replay(tiny_spec(EngineKind::kNative), t);
  EXPECT_EQ(r.all.count(), t.measured_count());
  EXPECT_EQ(r.reads.count() + r.writes.count(), r.all.count());
  EXPECT_EQ(r.measured.write_requests, r.writes.count());
  EXPECT_EQ(r.measured.read_requests, r.reads.count());
}

TEST(Replayer, LatenciesPositive) {
  const ReplayResult r = run_replay(tiny_spec(EngineKind::kNative), tiny_trace());
  EXPECT_GT(r.mean_ms(), 0.0);
  EXPECT_GT(r.write_mean_ms(), 0.0);
  EXPECT_GE(r.all.percentile_ms(0.99), r.all.percentile_ms(0.5));
}

TEST(Replayer, DeterministicAcrossRuns) {
  const Trace t = tiny_trace();
  const ReplayResult a = run_replay(tiny_spec(EngineKind::kSelectDedupe), t);
  const ReplayResult b = run_replay(tiny_spec(EngineKind::kSelectDedupe), t);
  EXPECT_DOUBLE_EQ(a.mean_ms(), b.mean_ms());
  EXPECT_EQ(a.measured.writes_eliminated, b.measured.writes_eliminated);
  EXPECT_EQ(a.physical_blocks_used, b.physical_blocks_used);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Replayer, WarmupDoesNotCountTowardMeasured) {
  Trace t = tiny_trace();
  const std::size_t measured = t.measured_count();
  const ReplayResult r = run_replay(tiny_spec(EngineKind::kFullDedupe), t);
  EXPECT_EQ(r.all.count(), measured);
  // Warm-up influenced state (dedup happens immediately in the measured
  // phase), but no warm-up request contributed latency samples.
  EXPECT_GT(r.measured.writes_eliminated, 0u);
}

TEST(Replayer, EngineNamesPropagate) {
  const Trace t = tiny_trace();
  EXPECT_EQ(run_replay(tiny_spec(EngineKind::kNative), t).engine_name, "native");
  EXPECT_EQ(run_replay(tiny_spec(EngineKind::kPod), t).engine_name, "pod");
  EXPECT_EQ(run_replay(tiny_spec(EngineKind::kIDedup), t).engine_name, "idedup");
}

TEST(Replayer, DiskCountersPopulated) {
  const ReplayResult r = run_replay(tiny_spec(EngineKind::kNative), tiny_trace());
  EXPECT_GT(r.disk_reads + r.disk_writes, 0u);
  EXPECT_GE(r.mean_disk_queue_depth, 0.0);
}

TEST(Replayer, Raid0VolumeWorks) {
  RunSpec spec = tiny_spec(EngineKind::kNative);
  spec.raid = RaidLevel::kRaid0;
  const ReplayResult r = run_replay(spec, tiny_trace());
  EXPECT_GT(r.mean_ms(), 0.0);
}

TEST(Replayer, Raid5WritesCostMoreThanRaid0) {
  const Trace t = tiny_trace();
  RunSpec r5 = tiny_spec(EngineKind::kNative);
  RunSpec r0 = tiny_spec(EngineKind::kNative);
  r0.raid = RaidLevel::kRaid0;
  const double w5 = run_replay(r5, t).write_mean_ms();
  const double w0 = run_replay(r0, t).write_mean_ms();
  EXPECT_GT(w5, w0);
}

TEST(Replayer, MakespanCoversTraceSpan) {
  const Trace t = tiny_trace();
  const ReplayResult r = run_replay(tiny_spec(EngineKind::kNative), t);
  const SimTime span = t.requests.back().arrival -
                       t.requests[t.warmup_count].arrival;
  EXPECT_GE(r.makespan, span);
}

TEST(Replayer, NormalizationHelpers) {
  EXPECT_DOUBLE_EQ(normalized_pct(5.0, 10.0), 50.0);
  EXPECT_DOUBLE_EQ(normalized_pct(5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_pct(5.0, 10.0), 50.0);
  EXPECT_DOUBLE_EQ(improvement_pct(15.0, 10.0), -50.0);
}

TEST(Replayer, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(EngineKind::kNative), "native");
  EXPECT_STREQ(to_string(EngineKind::kFullDedupe), "full-dedupe");
  EXPECT_STREQ(to_string(EngineKind::kIDedup), "idedup");
  EXPECT_STREQ(to_string(EngineKind::kSelectDedupe), "select-dedupe");
  EXPECT_STREQ(to_string(EngineKind::kPod), "pod");
  EXPECT_STREQ(to_string(EngineKind::kIoDedup), "io-dedup");
}

}  // namespace
}  // namespace pod

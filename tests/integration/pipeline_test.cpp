// The intra-replay pipeline must be observationally identical to the serial
// streaming loop: a prepare thread only reads the trace ahead of the DES,
// so every latency sample, counter, and byte of end state matches with the
// pipeline on or off — for every engine, and regardless of ring depth.
#include <gtest/gtest.h>

#include <string>

#include "replay/parallel_runner.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

Trace small_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 2000;
  p.warmup_requests = 1000;
  return TraceGenerator(p).generate();
}

RunSpec spec_for(EngineKind kind) {
  RunSpec spec = test_spec();
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

PipelineConfig pipeline_on(std::size_t depth = 8) {
  PipelineConfig p;
  p.enabled = true;
  p.depth = depth;
  return p;
}

PipelineConfig pipeline_off() {
  PipelineConfig p;
  p.enabled = false;
  return p;
}

const std::vector<EngineKind> kAllEngines = {
    EngineKind::kNative,       EngineKind::kFullDedupe,
    EngineKind::kIDedup,       EngineKind::kSelectDedupe,
    EngineKind::kPod,          EngineKind::kIoDedup,
};

void expect_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.all.count(), b.all.count());
  EXPECT_DOUBLE_EQ(a.mean_ms(), b.mean_ms());
  EXPECT_DOUBLE_EQ(a.read_mean_ms(), b.read_mean_ms());
  EXPECT_DOUBLE_EQ(a.write_mean_ms(), b.write_mean_ms());
  EXPECT_DOUBLE_EQ(a.all.percentile_ms(0.99), b.all.percentile_ms(0.99));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.physical_blocks_used, b.physical_blocks_used);
  EXPECT_EQ(a.measured.writes_eliminated, b.measured.writes_eliminated);
  EXPECT_EQ(a.measured.chunks_deduped, b.measured.chunks_deduped);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.peak_event_depth, b.peak_event_depth);
}

TEST(ReplayPipeline, MatchesSerialForEveryEngine) {
  const Trace t = small_trace();
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(to_string(kind));
    const ReplayResult serial =
        run_replay(spec_for(kind), t, AdmissionMode::kStreaming,
                   pipeline_off());
    const ReplayResult piped = run_replay(
        spec_for(kind), t, AdmissionMode::kStreaming, pipeline_on());
    expect_identical(serial, piped);
    EXPECT_FALSE(serial.pipeline.enabled);
    EXPECT_TRUE(piped.pipeline.enabled);
    // 3000 requests / 64 per batch, all delivered.
    EXPECT_EQ((t.measured_count() + 63) / 64, piped.pipeline.batches);
  }
}

TEST(ReplayPipeline, DepthOneStillIdentical) {
  const Trace t = small_trace();
  const ReplayResult serial = run_replay(
      spec_for(EngineKind::kPod), t, AdmissionMode::kStreaming, pipeline_off());
  const ReplayResult piped = run_replay(
      spec_for(EngineKind::kPod), t, AdmissionMode::kStreaming, pipeline_on(1));
  expect_identical(serial, piped);
  EXPECT_EQ(1u, piped.pipeline.depth);
}

TEST(ReplayPipeline, MatchesPrescheduledBaseline) {
  const Trace t = small_trace();
  const ReplayResult pre = run_replay(spec_for(EngineKind::kFullDedupe), t,
                                      AdmissionMode::kPrescheduled);
  const ReplayResult piped =
      run_replay(spec_for(EngineKind::kFullDedupe), t,
                 AdmissionMode::kStreaming, pipeline_on());
  EXPECT_EQ(pre.all.count(), piped.all.count());
  EXPECT_DOUBLE_EQ(pre.mean_ms(), piped.mean_ms());
  EXPECT_EQ(pre.makespan, piped.makespan);
  EXPECT_EQ(pre.physical_blocks_used, piped.physical_blocks_used);
}

TEST(ReplayPipeline, StatsTripwires) {
  const Trace t = small_trace();
  const ReplayResult r = run_replay(
      spec_for(EngineKind::kNative), t, AdmissionMode::kStreaming,
      pipeline_on(4));
  EXPECT_TRUE(r.pipeline.enabled);
  EXPECT_EQ(4u, r.pipeline.depth);
  EXPECT_GT(r.pipeline.batches, 0u);
  // Occupancy is sampled per pop and includes the popped batch, so it sits
  // in [1, depth].
  EXPECT_GE(r.pipeline.mean_occupancy, 1.0);
  EXPECT_LE(r.pipeline.mean_occupancy, 4.0);
}

TEST(ReplayPipeline, RejectsUnorderedTraceLikeSerial) {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 100;
  p.warmup_requests = 0;
  Trace t = TraceGenerator(p).generate();
  ASSERT_GE(t.requests.size(), 10u);
  std::swap(t.requests[4].arrival, t.requests[5].arrival);
  if (t.requests[4].arrival == t.requests[5].arrival)
    t.requests[5].arrival = t.requests[4].arrival - 1;
  EXPECT_THROW(run_replay(spec_for(EngineKind::kNative), t,
                          AdmissionMode::kStreaming, pipeline_off()),
               std::runtime_error);
  EXPECT_THROW(run_replay(spec_for(EngineKind::kNative), t,
                          AdmissionMode::kStreaming, pipeline_on()),
               std::runtime_error);
}

// Pipeline inside ParallelRunner workers: each replay gets its own prepare
// thread; results must match the serial single-job run for every engine.
TEST(ReplayPipeline, IdenticalUnderParallelJobs) {
  const Trace t = small_trace();
  std::vector<ParallelRunner::RunItem> serial_items;
  std::vector<ParallelRunner::RunItem> piped_items;
  for (EngineKind kind : kAllEngines) {
    RunSpec spec = spec_for(kind);
    spec.pipeline = pipeline_off();
    serial_items.push_back({spec, &t});
    spec.pipeline = pipeline_on();
    piped_items.push_back({spec, &t});
  }

  const std::vector<ReplayResult> serial = ParallelRunner(1).run(serial_items);
  const std::vector<ReplayResult> piped = ParallelRunner(4).run(piped_items);
  ASSERT_EQ(serial.size(), piped.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(to_string(serial_items[i].spec.engine));
    expect_identical(serial[i], piped[i]);
  }
}

}  // namespace
}  // namespace pod

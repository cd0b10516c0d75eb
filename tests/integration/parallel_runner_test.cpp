// ISSUE acceptance: replaying the same specs serially and via
// ParallelRunner with 4 jobs must produce identical per-config metrics —
// parallelism changes wall-clock only, never results.
#include "replay/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "synth/generator.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

Trace small_trace() {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 2000;
  p.measured_requests = 2000;
  return TraceGenerator(p).generate();
}

RunSpec small_spec(EngineKind kind) {
  RunSpec spec = test_spec();
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

void expect_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.engine_name, b.engine_name);
  EXPECT_EQ(a.all.count(), b.all.count());
  EXPECT_EQ(a.all.stats().sum(), b.all.stats().sum());
  EXPECT_EQ(a.reads.stats().sum(), b.reads.stats().sum());
  EXPECT_EQ(a.writes.stats().sum(), b.writes.stats().sum());
  EXPECT_EQ(a.all.percentile_ns(0.99), b.all.percentile_ns(0.99));
  EXPECT_EQ(a.measured.writes_eliminated, b.measured.writes_eliminated);
  EXPECT_EQ(a.physical_blocks_used, b.physical_blocks_used);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(ParallelRunner, MatchesSerialByteForByte) {
  const Trace trace = small_trace();
  const std::vector<EngineKind> kinds = {
      EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
      EngineKind::kSelectDedupe};

  std::vector<ParallelRunner::RunItem> items;
  std::vector<ReplayResult> serial;
  for (EngineKind kind : kinds) {
    items.push_back({small_spec(kind), &trace, {}});
    serial.push_back(run_replay(small_spec(kind), trace));
  }

  const ParallelRunner runner(4);
  const std::vector<ReplayResult> parallel = runner.run(items);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].engine_name);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunner, SingleJobRunsInline) {
  const Trace trace = small_trace();
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), &trace, {}});

  const ParallelRunner runner(1);
  const std::vector<ReplayResult> out = runner.run(items);
  ASSERT_EQ(out.size(), 1u);
  expect_identical(out[0], run_replay(small_spec(EngineKind::kNative), trace));
}

TEST(ParallelRunner, ZeroJobsDegradesToSerial) {
  // A caller forwarding an unvalidated POD_JOBS=0 must get serial execution,
  // not a deadlock on a pool with no workers.
  const Trace trace = small_trace();
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), &trace, {}});
  items.push_back({small_spec(EngineKind::kSelectDedupe), &trace, {}});

  const std::vector<ReplayResult> out = ParallelRunner(0).run(items);
  ASSERT_EQ(out.size(), 2u);
  expect_identical(out[0], run_replay(small_spec(EngineKind::kNative), trace));
  expect_identical(out[1],
                   run_replay(small_spec(EngineKind::kSelectDedupe), trace));
}

TEST(ParallelRunner, EmptyItemListReturnsEmpty) {
  const std::vector<ReplayResult> out =
      ParallelRunner(4).run(std::vector<ParallelRunner::RunItem>{});
  EXPECT_TRUE(out.empty());
}

TEST(ParallelRunner, ResultsStayInInputOrder) {
  const Trace trace = small_trace();
  // Duplicate specs in a known order; engine_name must match slot by slot.
  const std::vector<EngineKind> kinds = {
      EngineKind::kFullDedupe, EngineKind::kNative, EngineKind::kFullDedupe,
      EngineKind::kNative,     EngineKind::kIDedup, EngineKind::kNative};
  std::vector<ParallelRunner::RunItem> items;
  for (EngineKind kind : kinds) items.push_back({small_spec(kind), &trace, {}});

  const std::vector<ReplayResult> out = ParallelRunner(3).run(items);
  ASSERT_EQ(out.size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i)
    EXPECT_EQ(out[i].engine_name, to_string(kinds[i]));
}

TEST(ParallelRunner, NullTraceRejectedUpFront) {
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), nullptr, "null-run"});
  try {
    ParallelRunner(2).run(items);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("null-run"), std::string::npos);
  }
}

TEST(ParallelRunner, WorkerExceptionCarriesLabelAndSeed) {
  // A non-time-ordered trace makes run_replay throw inside the worker; the
  // rethrown error must identify which run failed.
  Trace bad = small_trace();
  ASSERT_GT(bad.requests.size(), bad.warmup_count + 2);
  std::swap(bad.requests[bad.warmup_count].arrival,
            bad.requests[bad.warmup_count + 1].arrival);
  bad.requests[bad.warmup_count].arrival += 1;  // strictly out of order

  const Trace good = small_trace();
  RunSpec failing_spec = small_spec(EngineKind::kNative);
  failing_spec.array_cfg.fault.seed = 1234;
  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kNative), &good, "good-run"});
  items.push_back({failing_spec, &bad, "bad-run"});

  try {
    ParallelRunner(2).run(items);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad-run"), std::string::npos) << what;
    EXPECT_NE(what.find("1234"), std::string::npos) << what;
    EXPECT_NE(what.find("not time-ordered"), std::string::npos) << what;
  }
}

TEST(ParallelRunner, DefaultLabelNamesEngineAndTrace) {
  Trace bad = small_trace();
  ASSERT_GT(bad.requests.size(), bad.warmup_count + 2);
  std::swap(bad.requests[bad.warmup_count].arrival,
            bad.requests[bad.warmup_count + 1].arrival);
  bad.requests[bad.warmup_count].arrival += 1;

  std::vector<ParallelRunner::RunItem> items;
  items.push_back({small_spec(EngineKind::kIDedup), &bad, {}});  // no label

  try {
    ParallelRunner(1).run(items);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("idedup"), std::string::npos) << what;
    EXPECT_NE(what.find(bad.name), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace pod

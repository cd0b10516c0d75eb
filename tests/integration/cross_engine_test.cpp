// Cross-engine invariants on a shared synthetic trace: the qualitative
// orderings the paper's evaluation rests on must hold for any seed.
#include <gtest/gtest.h>

#include <map>

#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

class CrossEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadProfile p = tiny_test_profile();
    p.measured_requests = 4000;
    p.warmup_requests = 6000;
    trace_ = new Trace(TraceGenerator(p).generate());
    for (EngineKind k :
         {EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
          EngineKind::kSelectDedupe, EngineKind::kPod, EngineKind::kIoDedup}) {
      RunSpec spec = test_spec();
      spec.engine = k;
      spec.engine_cfg.logical_blocks = p.volume_blocks;
      spec.engine_cfg.memory_bytes = 2 * kMiB;
      (*results_)[k] = run_replay(spec, *trace_);
    }
  }

  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static const ReplayResult& result(EngineKind k) { return results_->at(k); }

  static Trace* trace_;
  static std::map<EngineKind, ReplayResult>* results_;
};

Trace* CrossEngine::trace_ = nullptr;
std::map<EngineKind, ReplayResult>* CrossEngine::results_ =
    new std::map<EngineKind, ReplayResult>();

TEST_F(CrossEngine, RemovalOrderingFullGeSelectGeIDedup) {
  // Figure 11's ordering: Full-Dedupe removes the most write requests,
  // Select-Dedupe/POD far more than iDedup.
  const double full = result(EngineKind::kFullDedupe).measured.removed_write_pct();
  const double sel = result(EngineKind::kSelectDedupe).measured.removed_write_pct();
  const double ided = result(EngineKind::kIDedup).measured.removed_write_pct();
  const double pod = result(EngineKind::kPod).measured.removed_write_pct();
  EXPECT_GE(full, sel);
  EXPECT_GT(sel, ided);
  EXPECT_GE(pod, sel * 0.95);  // POD tracks Select-Dedupe closely or better
  EXPECT_EQ(result(EngineKind::kNative).measured.removed_write_pct(), 0.0);
  EXPECT_EQ(result(EngineKind::kIoDedup).measured.removed_write_pct(), 0.0);
}

TEST_F(CrossEngine, CapacityOrderingFullLeSelectLeIDedupLeNative) {
  // Figure 10: Full-Dedupe saves the most capacity; Select-Dedupe saves at
  // least as much as iDedup; Native saves nothing.
  const auto full = result(EngineKind::kFullDedupe).physical_blocks_used;
  const auto sel = result(EngineKind::kSelectDedupe).physical_blocks_used;
  const auto ided = result(EngineKind::kIDedup).physical_blocks_used;
  const auto native = result(EngineKind::kNative).physical_blocks_used;
  EXPECT_LE(full, sel);
  EXPECT_LE(sel, ided);
  EXPECT_LE(ided, native);
}

TEST_F(CrossEngine, SelectDedupeOutperformsNativeAndIDedupOnWrites) {
  // Figure 9(a): Select-Dedupe's write response times beat Native and
  // iDedup on redundant workloads.
  EXPECT_LT(result(EngineKind::kSelectDedupe).write_mean_ms(),
            result(EngineKind::kNative).write_mean_ms());
  EXPECT_LT(result(EngineKind::kSelectDedupe).write_mean_ms(),
            result(EngineKind::kIDedup).write_mean_ms());
}

TEST_F(CrossEngine, OverallResponseOrdering) {
  // Figure 8's headline: Select-Dedupe/POD << Native; iDedup only helps a
  // little.
  EXPECT_LT(result(EngineKind::kSelectDedupe).mean_ms(),
            result(EngineKind::kNative).mean_ms());
  EXPECT_LT(result(EngineKind::kPod).mean_ms(),
            result(EngineKind::kNative).mean_ms());
  // iDedup tracks Native closely: its dedup barely fires on small-write
  // workloads and its fingerprinting adds a little latency, so allow a
  // modest band around Native rather than strict improvement.
  EXPECT_LE(result(EngineKind::kIDedup).mean_ms(),
            result(EngineKind::kNative).mean_ms() * 1.2);
}

TEST_F(CrossEngine, MapTableOnlyForDedupEngines) {
  EXPECT_EQ(result(EngineKind::kNative).map_table_max_bytes, 0u);
  EXPECT_EQ(result(EngineKind::kIoDedup).map_table_max_bytes, 0u);
  EXPECT_GT(result(EngineKind::kSelectDedupe).map_table_max_bytes, 0u);
  EXPECT_GT(result(EngineKind::kFullDedupe).map_table_max_bytes, 0u);
}

TEST_F(CrossEngine, HashingChargedOnlyWhereExpected) {
  EXPECT_EQ(result(EngineKind::kNative).chunks_hashed, 0u);
  EXPECT_GT(result(EngineKind::kFullDedupe).chunks_hashed, 0u);
  EXPECT_GT(result(EngineKind::kSelectDedupe).chunks_hashed, 0u);
  // iDedup skips small requests: it hashes strictly less than Full-Dedupe.
  EXPECT_LT(result(EngineKind::kIDedup).chunks_hashed,
            result(EngineKind::kFullDedupe).chunks_hashed);
}

TEST_F(CrossEngine, OnlyFullDedupePaysIndexDiskReads) {
  EXPECT_EQ(result(EngineKind::kSelectDedupe).measured.index_disk_reads, 0u);
  EXPECT_EQ(result(EngineKind::kIDedup).measured.index_disk_reads, 0u);
  EXPECT_EQ(result(EngineKind::kPod).measured.index_disk_reads, 0u);
}

TEST_F(CrossEngine, DedupEnginesIssueFewerDiskWrites) {
  EXPECT_LT(result(EngineKind::kSelectDedupe).disk_writes,
            result(EngineKind::kNative).disk_writes);
  EXPECT_LT(result(EngineKind::kFullDedupe).disk_writes,
            result(EngineKind::kNative).disk_writes);
}

}  // namespace
}  // namespace pod

// Parameterized property sweeps across configuration axes: RAID geometry,
// scheduler policy, Select-Dedupe threshold, and memory budget. Each sweep
// asserts invariants that must hold at *every* point of the axis.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "raid/raid0.hpp"
#include "raid/raid5.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

// ---------------------------------------------------------------------
// RAID-5 geometry sweep: mapping bijectivity and write-plan arithmetic
// must hold for any disk count / stripe unit.
// ---------------------------------------------------------------------

using RaidGeometry = std::tuple<std::size_t /*disks*/, std::uint64_t /*unit*/>;

class Raid5Geometry : public ::testing::TestWithParam<RaidGeometry> {
 protected:
  ArrayConfig config() const {
    ArrayConfig cfg;
    cfg.num_disks = std::get<0>(GetParam());
    cfg.stripe_unit_blocks = std::get<1>(GetParam());
    cfg.disk_geometry.total_blocks = 1 << 16;
    return cfg;
  }
};

TEST_P(Raid5Geometry, MappingIsInjective) {
  Simulator sim;
  Raid5 raid(sim, config());
  const std::uint64_t unit = std::get<1>(GetParam());
  const std::size_t disks = std::get<0>(GetParam());
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  const Pba probe = std::min<Pba>(raid.capacity_blocks(),
                                  unit * (disks - 1) * disks * 4);
  for (Pba b = 0; b < probe; ++b) {
    const DiskFragment f = raid.map_block(b);
    EXPECT_LT(f.disk, disks);
    EXPECT_TRUE(seen.emplace(f.disk, f.block).second) << "collision at " << b;
  }
}

TEST_P(Raid5Geometry, DataNeverMapsToParityDisk) {
  Simulator sim;
  Raid5 raid(sim, config());
  const std::uint64_t unit = std::get<1>(GetParam());
  const std::size_t disks = std::get<0>(GetParam());
  const std::uint64_t row_data = unit * (disks - 1);
  for (Pba b = 0; b < std::min<Pba>(raid.capacity_blocks(), row_data * 32); ++b) {
    const std::uint64_t row = b / row_data;
    EXPECT_NE(raid.map_block(b).disk, raid.parity_disk(row)) << "block " << b;
  }
}

TEST_P(Raid5Geometry, FullStripePlanHasNoPreReads) {
  Simulator sim;
  Raid5 raid(sim, config());
  const std::uint64_t unit = std::get<1>(GetParam());
  const std::size_t disks = std::get<0>(GetParam());
  const std::uint64_t row_data = unit * (disks - 1);
  const auto plan = raid.plan_write(0, row_data);
  EXPECT_EQ(plan.full_stripes, 1u);
  EXPECT_EQ(plan.rmw_rows, 0u);
  EXPECT_TRUE(plan.pre_reads.empty());
  std::uint64_t written = 0;
  for (const auto& w : plan.writes) written += w.nblocks;
  EXPECT_EQ(written, row_data + unit);  // data + parity
}

TEST_P(Raid5Geometry, SingleBlockWriteIsFourOps) {
  Simulator sim;
  Raid5 raid(sim, config());
  const auto plan = raid.plan_write(1, 1);
  std::uint64_t reads = 0, writes = 0;
  for (const auto& r : plan.pre_reads) reads += r.nblocks;
  for (const auto& w : plan.writes) writes += w.nblocks;
  EXPECT_EQ(reads, 2u);   // old data + old parity
  EXPECT_EQ(writes, 2u);  // new data + new parity
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Raid5Geometry,
    ::testing::Combine(::testing::Values(std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{8}),
                       ::testing::Values(std::uint64_t{4}, std::uint64_t{16},
                                         std::uint64_t{64})),
    [](const ::testing::TestParamInfo<RaidGeometry>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_u" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Scheduler sweep: every policy must complete the same op set.
// ---------------------------------------------------------------------

class SchedulerSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerSweep, AllOpsComplete) {
  Simulator sim;
  HddGeometry g;
  g.total_blocks = 1 << 18;
  Disk disk(sim, HddModel(g, HddTiming{}), GetParam());
  Rng rng(11);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    DiskOp op;
    op.type = rng.chance(0.5) ? OpType::kRead : OpType::kWrite;
    op.block = rng.uniform(0, g.total_blocks - 8);
    op.nblocks = 1 + rng.uniform(0, 7);
    op.done = [&completed](IoStatus) { ++completed; };
    disk.submit(std::move(op));
  }
  sim.run();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(disk.stats().reads + disk.stats().writes, 64u);
}

TEST_P(SchedulerSweep, ReorderingNeverLosesOps) {
  // Interleave submissions with partial drains.
  Simulator sim;
  HddGeometry g;
  g.total_blocks = 1 << 18;
  Disk disk(sim, HddModel(g, HddTiming{}), GetParam());
  Rng rng(13);
  int completed = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      DiskOp op;
      op.block = rng.uniform(0, g.total_blocks - 1);
      op.nblocks = 1;
      op.done = [&completed](IoStatus) { ++completed; };
      disk.submit(std::move(op));
    }
    sim.run_until(sim.now() + ms(20));
  }
  sim.run();
  EXPECT_EQ(completed, 8 * 16);
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerSweep,
                         ::testing::Values(SchedulerKind::kFcfs,
                                           SchedulerKind::kSstf,
                                           SchedulerKind::kScan),
                         [](const ::testing::TestParamInfo<SchedulerKind>& i) {
                           return to_string(i.param);
                         });

// ---------------------------------------------------------------------
// Select-Dedupe threshold sweep: policy invariants per threshold.
// ---------------------------------------------------------------------

class ThresholdSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThresholdSweep, RemovalAndCapacityBehaveMonotonically) {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 2500;
  p.warmup_requests = 1500;
  const Trace trace = TraceGenerator(p).generate();

  auto run_with_threshold = [&](std::size_t threshold) {
    RunSpec spec = test_spec();
    spec.engine = EngineKind::kSelectDedupe;
    spec.engine_cfg.logical_blocks = p.volume_blocks;
    spec.engine_cfg.memory_bytes = 2 * kMiB;
    spec.engine_cfg.select_threshold = threshold;
    return run_replay(spec, trace);
  };

  const ReplayResult at = run_with_threshold(GetParam());
  const ReplayResult native = [&] {
    RunSpec spec = test_spec();
    spec.engine = EngineKind::kNative;
    spec.engine_cfg.logical_blocks = p.volume_blocks;
    spec.engine_cfg.memory_bytes = 2 * kMiB;
    return run_replay(spec, trace);
  }();

  // Any threshold saves capacity vs Native and never invents writes.
  EXPECT_LE(at.physical_blocks_used, native.physical_blocks_used);
  EXPECT_GT(at.measured.writes_eliminated, 0u);
  // Eliminations (category 1) are threshold-independent; dedup'd chunks
  // include the threshold-dependent category-3 runs.
  EXPECT_GE(at.measured.chunks_deduped, at.measured.writes_eliminated);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(1, 2, 3, 5, 8),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "t" + std::to_string(i.param);
                         });

// ---------------------------------------------------------------------
// Memory-budget sweep: more memory never hurts dedup detection.
// ---------------------------------------------------------------------

class MemorySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemorySweep, DetectionImprovesWithMemory) {
  WorkloadProfile p = tiny_test_profile();
  p.measured_requests = 3000;
  p.warmup_requests = 2000;
  const Trace trace = TraceGenerator(p).generate();

  RunSpec spec = test_spec();
  spec.engine = EngineKind::kSelectDedupe;
  spec.engine_cfg.logical_blocks = p.volume_blocks;

  spec.engine_cfg.memory_bytes = GetParam();
  const ReplayResult small = run_replay(spec, trace);

  spec.engine_cfg.memory_bytes = GetParam() * 8;
  const ReplayResult big = run_replay(spec, trace);

  EXPECT_GE(big.measured.writes_eliminated + 5,
            small.measured.writes_eliminated);
  EXPECT_LE(big.physical_blocks_used,
            small.physical_blocks_used + small.physical_blocks_used / 20);
}

INSTANTIATE_TEST_SUITE_P(Budgets, MemorySweep,
                         ::testing::Values(64 * 1024, 256 * 1024,
                                           1024 * 1024),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "kb" + std::to_string(i.param / 1024);
                         });

}  // namespace
}  // namespace pod

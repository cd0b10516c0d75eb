#include "engines/post_process.hpp"

#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

using testutil::EngineHarness;

PostProcessEngine& pp(EngineHarness& h) {
  return static_cast<PostProcessEngine&>(h.engine());
}

TEST(PostProcess, ForegroundWritesUntouched) {
  EngineHarness h(EngineKind::kPostProcess);
  (void)h.write(0, {1, 2});
  (void)h.write(100, {1, 2});  // duplicate content still written
  EXPECT_EQ(h.engine().stats().writes_eliminated, 0u);
  EXPECT_EQ(h.engine().hash_engine().chunks_hashed(), 0u);  // no inline hash
  EXPECT_EQ(h.engine().physical_blocks_used(), 4u);
}

TEST(PostProcess, ScrubReclaimsDuplicates) {
  EngineHarness h(EngineKind::kPostProcess);
  (void)h.write(0, {1, 2});
  (void)h.write(100, {1, 2});
  pp(h).scrub_pass();
  h.sim().run();  // drain background scan reads
  EXPECT_EQ(pp(h).blocks_reclaimed(), 2u);
  EXPECT_EQ(h.engine().physical_blocks_used(), 2u);
  // The reclaimed logical blocks now redirect to the canonical copies.
  EXPECT_EQ(h.engine().store().resolve(100), h.engine().store().resolve(0));
}

TEST(PostProcess, ReclaimedDataStaysReadable) {
  EngineHarness h(EngineKind::kPostProcess);
  (void)h.write(0, {1, 2, 3});
  (void)h.write(100, {1, 2, 3});
  pp(h).scrub_pass();
  h.sim().run();
  const BlockStore& store = h.engine().store();
  for (std::uint32_t i = 0; i < 3; ++i) {
    const Pba pba = store.resolve(100 + i);
    ASSERT_NE(pba, kInvalidPba);
    EXPECT_EQ(*store.fingerprint_of(pba), Fingerprint::of_content_id(1 + i));
  }
}

TEST(PostProcess, CanonicalSurvivesOverwriteOfSource) {
  EngineHarness h(EngineKind::kPostProcess);
  (void)h.write(0, {1});
  (void)h.write(100, {1});
  pp(h).scrub_pass();
  h.sim().run();
  (void)h.write(0, {9});  // overwrite the canonical holder's LBA
  const BlockStore& store = h.engine().store();
  const Pba pba = store.resolve(100);
  EXPECT_EQ(*store.fingerprint_of(pba), Fingerprint::of_content_id(1));
}

TEST(PostProcess, StaleCanonicalReanchored) {
  EngineHarness h(EngineKind::kPostProcess);
  (void)h.write(0, {1});
  pp(h).scrub_pass();   // canonical: pba 0
  h.sim().run();
  (void)h.write(0, {2});  // content 1 gone from disk entirely
  (void)h.write(100, {1});
  pp(h).scrub_pass();     // must NOT dedup 100 against the dead copy
  h.sim().run();
  const BlockStore& store = h.engine().store();
  EXPECT_EQ(*store.fingerprint_of(store.resolve(100)),
            Fingerprint::of_content_id(1));
}

TEST(PostProcess, ScanPassBounded) {
  PostProcessOptions opts;
  opts.blocks_per_pass = 4;
  EngineConfig cfg = testutil::small_engine_config();
  Simulator sim;
  RunSpec spec = test_spec();
  spec.engine = EngineKind::kPostProcess;
  spec.engine_cfg = cfg;
  spec.post_process = opts;
  auto volume = make_volume(sim, spec);
  PostProcessEngine engine(sim, *volume, cfg, opts);
  for (Lba l = 0; l < 10; ++l)
    engine.warm(testutil::make_write(l, {l + 1}));
  engine.scrub_pass();
  EXPECT_EQ(engine.blocks_scanned(), 4u);
  engine.scrub_pass();
  EXPECT_EQ(engine.blocks_scanned(), 8u);
}

TEST(PostProcess, ScrubChargesBackgroundReads) {
  EngineHarness h(EngineKind::kPostProcess);
  for (Lba l = 0; l < 16; ++l) (void)h.write(l * 4, {100 + l, 200 + l});
  const std::uint64_t ops_before = h.disk_ops();
  pp(h).scrub_pass();
  h.sim().run();
  EXPECT_GT(h.disk_ops(), ops_before);
}

TEST(PostProcess, MapTableGrowsOnlyAfterScrub) {
  EngineHarness h(EngineKind::kPostProcess);
  (void)h.write(0, {1});
  (void)h.write(100, {1});
  EXPECT_EQ(h.engine().map_table_bytes(), 0u);
  pp(h).scrub_pass();
  h.sim().run();
  EXPECT_EQ(h.engine().map_table_bytes(), MapTable::kEntryBytes);
}

}  // namespace
}  // namespace pod

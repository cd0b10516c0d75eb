#include "trace/trace_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "synth/generator.hpp"

namespace pod {
namespace {

WorkloadProfile cache_profile(const std::string& name = "cachetest") {
  WorkloadProfile p = tiny_test_profile();
  p.name = name;
  p.measured_requests = 800;
  p.warmup_requests = 400;
  return p;
}

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_equal(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.warmup_count, b.warmup_count);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const IoRequest& x = a.requests[i];
    const IoRequest& y = b.requests[i];
    ASSERT_EQ(x.arrival, y.arrival) << "req " << i;
    ASSERT_EQ(x.type, y.type) << "req " << i;
    ASSERT_EQ(x.lba, y.lba) << "req " << i;
    ASSERT_EQ(x.nblocks, y.nblocks) << "req " << i;
    ASSERT_TRUE(same_chunks(x.chunks, y.chunks)) << "req " << i;
  }
}

TEST(TraceCache, KeyIsStableAndNamePrefixed) {
  const WorkloadProfile p = cache_profile();
  const std::string key = trace_cache_key(p);
  EXPECT_EQ(key, trace_cache_key(p));
  EXPECT_EQ(key.rfind("cachetest-", 0), 0u);
  EXPECT_NE(key.find(".podtrc"), std::string::npos);
}

TEST(TraceCache, KeyCoversGeneratorRelevantFields) {
  const WorkloadProfile base = cache_profile();
  WorkloadProfile p = base;
  p.seed += 1;
  EXPECT_NE(trace_cache_key(base), trace_cache_key(p));
  p = base;
  p.measured_requests += 1;
  EXPECT_NE(trace_cache_key(base), trace_cache_key(p));
  p = base;
  p.write_ratio += 0.001;
  EXPECT_NE(trace_cache_key(base), trace_cache_key(p));
  p = base;
  p.volume_blocks += 1;
  EXPECT_NE(trace_cache_key(base), trace_cache_key(p));
}

TEST(TraceCache, StoreThenLoadRoundTrips) {
  const WorkloadProfile p = cache_profile();
  const std::string dir = fresh_dir("pod_cache_roundtrip");
  const Trace generated = TraceGenerator(p).generate();

  EXPECT_FALSE(try_load_cached_trace(dir, p).has_value());
  ASSERT_TRUE(store_cached_trace(dir, p, generated));
  std::optional<Trace> loaded = try_load_cached_trace(dir, p);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(generated, *loaded);
  // The publish is atomic: no temp files left behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().extension(), ".podtrc");
}

TEST(TraceCache, CorruptEntryIsAMiss) {
  const WorkloadProfile p = cache_profile();
  const std::string dir = fresh_dir("pod_cache_corrupt");
  std::filesystem::create_directories(dir);
  std::ofstream(trace_cache_path(dir, p)) << "not a trace";
  EXPECT_FALSE(try_load_cached_trace(dir, p).has_value());
}

TEST(TraceCache, TruncatedEntryIsAMiss) {
  const WorkloadProfile p = cache_profile();
  const std::string dir = fresh_dir("pod_cache_truncated");
  const Trace generated = TraceGenerator(p).generate();
  ASSERT_TRUE(store_cached_trace(dir, p, generated));
  const std::string path = trace_cache_path(dir, p);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_FALSE(try_load_cached_trace(dir, p).has_value());
}

TEST(TraceCache, BitFlippedEntryIsAMissThatRegenerates) {
  // Silent corruption (one flipped byte deep in the fingerprint blob, where
  // no structural check would notice) must be caught by the file checksum
  // and treated as a cache miss — obtain_trace falls back to regeneration.
  const WorkloadProfile p = cache_profile();
  const std::string dir = fresh_dir("pod_cache_bitflip");
  const Trace generated = TraceGenerator(p).generate();
  ASSERT_TRUE(store_cached_trace(dir, p, generated));

  const std::string path = trace_cache_path(dir, p);
  const auto size = std::filesystem::file_size(path);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(size - size / 4));
  char byte = 0;
  f.seekg(f.tellp());
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(size - size / 4));
  byte = static_cast<char>(byte ^ 0x01);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(try_load_cached_trace(dir, p).has_value());

  const Trace regenerated = obtain_trace(p, dir);
  expect_equal(regenerated, generated);
}

TEST(TraceCache, ObtainTracePopulatesAndHits) {
  const WorkloadProfile p = cache_profile();
  const std::string dir = fresh_dir("pod_cache_obtain");
  const Trace first = obtain_trace(p, dir);
  EXPECT_TRUE(std::filesystem::exists(trace_cache_path(dir, p)));
  const Trace second = obtain_trace(p, dir);  // warm: loaded, not regenerated
  expect_equal(first, second);
  expect_equal(first, TraceGenerator(p).generate());
}

TEST(TraceCache, ObtainTracesParallelPreservesOrder) {
  std::vector<WorkloadProfile> profiles = {cache_profile("alpha"),
                                           cache_profile("beta"),
                                           cache_profile("gamma")};
  profiles[1].seed += 7;
  profiles[2].seed += 13;
  const std::vector<Trace> parallel = obtain_traces(profiles, 3, "");
  ASSERT_EQ(parallel.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(parallel[i].name, profiles[i].name);
    expect_equal(parallel[i], TraceGenerator(profiles[i]).generate());
  }
}

}  // namespace
}  // namespace pod

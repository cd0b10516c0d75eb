// End-to-end telemetry contract over real replays:
//   * equivalence — every engine must produce byte-identical replay results
//     with telemetry on and off (the subsystem observes the simulation, it
//     never participates in it);
//   * output validity — the per-run trace-event JSON parses back and carries
//     the request spans / disk lanes / repartition instants, and the sampler
//     CSV has the declared schema;
//   * per-run file suffixing keeps parallel runs from sharing sinks.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../engines/engine_test_util.hpp"
#include "cache/index_cache.hpp"
#include "replay/replayer.hpp"
#include "synth/generator.hpp"
#include "telemetry/telemetry.hpp"
#include "test_json.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Trace small_trace(std::size_t measured = 1500) {
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 500;
  p.measured_requests = measured;
  return TraceGenerator(p).generate();
}

RunSpec spec_for(EngineKind kind) {
  RunSpec spec = test_spec();
  spec.engine = kind;
  spec.engine_cfg.logical_blocks = tiny_test_profile().volume_blocks;
  spec.engine_cfg.memory_bytes = 2 * kMiB;
  return spec;
}

/// Both telemetry sinks pointed into a fresh temp dir for one scope.
class TelemetryDir {
 public:
  explicit TelemetryDir(const std::string& tag) {
    dir_ = testing::TempDir() + "pod_telemetry_" + tag;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TelemetryDir() { fs::remove_all(dir_); }

  /// `spec` with both sinks on, sampling every 50 ms.
  RunSpec sinks_on(RunSpec spec) const {
    spec.telemetry.trace_events_path = dir_ + "/trace.json";
    spec.telemetry.timeseries_path = dir_ + "/series.csv";
    spec.telemetry.sample_interval = ms(50);
    return spec;
  }

  std::vector<std::string> files_matching(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind(prefix, 0) == 0) out.push_back(e.path().string());
    }
    return out;
  }

 private:
  std::string dir_;
};

const std::vector<EngineKind> kAllEngines = {
    EngineKind::kNative,       EngineKind::kFullDedupe,
    EngineKind::kIDedup,       EngineKind::kSelectDedupe,
    EngineKind::kPod,          EngineKind::kIoDedup,
};

TEST(TelemetryReplay, ResultsAreIdenticalWithTelemetryOnAndOff) {
  const Trace t = small_trace();
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(to_string(kind));
    RunSpec spec = spec_for(kind);
    spec.telemetry = TelemetryConfig{};
    const ReplayResult off = run_replay(spec, t);
    ReplayResult on;
    {
      const TelemetryDir dir(std::string("equiv_") + to_string(kind));
      on = run_replay(dir.sinks_on(spec), t);
    }

    // Latency recorders: identical sample streams.
    EXPECT_EQ(on.all.count(), off.all.count());
    EXPECT_DOUBLE_EQ(on.mean_ms(), off.mean_ms());
    EXPECT_DOUBLE_EQ(on.read_mean_ms(), off.read_mean_ms());
    EXPECT_DOUBLE_EQ(on.write_mean_ms(), off.write_mean_ms());
    EXPECT_DOUBLE_EQ(on.all.percentile_ms(0.99), off.all.percentile_ms(0.99));
    // Simulation: identical event stream (telemetry schedules nothing).
    EXPECT_EQ(on.makespan, off.makespan);
    EXPECT_EQ(on.events_scheduled, off.events_scheduled);
    EXPECT_EQ(on.peak_event_depth, off.peak_event_depth);
    // State and disk traffic: identical decisions.
    EXPECT_EQ(on.physical_blocks_used, off.physical_blocks_used);
    EXPECT_EQ(on.measured.writes_eliminated, off.measured.writes_eliminated);
    EXPECT_EQ(on.measured.chunks_deduped, off.measured.chunks_deduped);
    EXPECT_EQ(on.measured.chunks_written, off.measured.chunks_written);
    EXPECT_EQ(on.disk_reads, off.disk_reads);
    EXPECT_EQ(on.disk_writes, off.disk_writes);
    ASSERT_EQ(on.per_disk.size(), off.per_disk.size());
    for (std::size_t d = 0; d < on.per_disk.size(); ++d) {
      EXPECT_EQ(on.per_disk[d].reads, off.per_disk[d].reads);
      EXPECT_EQ(on.per_disk[d].writes, off.per_disk[d].writes);
      EXPECT_DOUBLE_EQ(on.per_disk[d].busy_ms, off.per_disk[d].busy_ms);
      EXPECT_DOUBLE_EQ(on.per_disk[d].mean_queue_depth,
                       off.per_disk[d].mean_queue_depth);
    }
    EXPECT_EQ(on.volume_counters.full_stripe_writes,
              off.volume_counters.full_stripe_writes);
    EXPECT_EQ(on.volume_counters.rmw_writes, off.volume_counters.rmw_writes);
    EXPECT_EQ(on.icache.adaptations, off.icache.adaptations);
    EXPECT_DOUBLE_EQ(on.final_index_fraction, off.final_index_fraction);

    // Only the registry snapshot may differ: populated iff telemetry ran.
    EXPECT_TRUE(off.telemetry_counters.empty());
    EXPECT_FALSE(on.telemetry_counters.empty());
  }
}

TEST(TelemetryReplay, TraceEventsCarrySpansLanesAndSamplerHasSchema) {
  const Trace t = small_trace();
  const TelemetryDir env("outputs");
  const ReplayResult r =
      run_replay(env.sinks_on(spec_for(EngineKind::kSelectDedupe)), t);
  ASSERT_GT(r.all.count(), 0u);

  const std::vector<std::string> traces = env.files_matching("trace.");
  ASSERT_EQ(traces.size(), 1u);
  const testjson::Value root = testjson::parse(slurp(traces[0]));
  ASSERT_TRUE(root.is_array());
  ASSERT_GT(root.arr.size(), 10u);

  std::set<std::string> phases;
  std::set<std::string> names;
  std::set<double> disk_tids;
  std::uint64_t begins = 0, ends = 0;
  for (const testjson::Value& ev : root.arr) {
    phases.insert(ev.at("ph").str);
    names.insert(ev.at("name").str);
    const int pid = static_cast<int>(ev.at("pid").num);
    if (pid == kTracePidDisks && ev.at("ph").str == "X")
      disk_tids.insert(ev.at("tid").num);
    if (ev.at("ph").str == "b") ++begins;
    if (ev.at("ph").str == "e") ++ends;
  }
  // Request spans (async), disk service spans (complete), queue counters
  // and lane metadata all present.
  EXPECT_TRUE(phases.count("b"));
  EXPECT_TRUE(phases.count("e"));
  EXPECT_TRUE(phases.count("X"));
  EXPECT_TRUE(phases.count("C"));
  EXPECT_TRUE(phases.count("M"));
  EXPECT_EQ(begins, ends);  // every opened span is closed
  EXPECT_TRUE(names.count("write"));
  EXPECT_TRUE(names.count("read"));
  EXPECT_TRUE(names.count("stage2-io"));
  // One service lane per RAID5 member disk.
  EXPECT_EQ(disk_tids.size(), spec_for(EngineKind::kSelectDedupe)
                                  .array_cfg.num_disks);

  const std::vector<std::string> series = env.files_matching("series.");
  ASSERT_EQ(series.size(), 1u);
  std::istringstream csv(slurp(series[0]));
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header.rfind("sim_ms,", 0), 0u);
  EXPECT_NE(header.find("disk0.queue"), std::string::npos);
  EXPECT_NE(header.find("engine.dedup_ratio"), std::string::npos);
  std::size_t rows = 0;
  const std::size_t cols =
      1 + static_cast<std::size_t>(
              std::count(header.begin(), header.end(), ','));
  for (std::string line; std::getline(csv, line);) {
    if (line.empty()) continue;
    ++rows;
    EXPECT_EQ(1 + static_cast<std::size_t>(
                      std::count(line.begin(), line.end(), ',')),
              cols);
  }
  EXPECT_GE(rows, 1u);  // finish() flushes at least the end-of-run row
}

TEST(TelemetryReplay, PodEmitsRepartitionInstantsWhenICacheAdapts) {
  // Drive a PodEngine directly with the index-pressure burst that reliably
  // forces repartitions (same shape as PodEngine.WriteBurstGrowsIndexCache),
  // with a manually attached Telemetry capturing the trace.
  const std::string dir = testing::TempDir() + "pod_telemetry_instants";
  fs::remove_all(dir);
  fs::create_directories(dir);
  TelemetryConfig tcfg;
  tcfg.trace_events_path = dir + "/trace.json";
  Telemetry telem(tcfg, "pod-instants");

  EngineConfig cfg = testutil::small_engine_config();
  cfg.memory_bytes = 256 * IndexCache::kEntryBytes;  // tiny budget
  testutil::EngineHarness h(EngineKind::kPod, cfg);
  Simulator& sim = h.sim();
  sim.set_telemetry(&telem);

  SimTime t = 0;
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      t += ms(20);
      OwnedRequest req = testutil::make_write(i * 2, {1000 + i}, t);
      sim.schedule_at(t, [&h, req]() { h.engine().submit(req, nullptr); });
    }
  }
  sim.run();
  telem.finish(sim.now());

  const ICacheStats st = h.engine().adaptive_cache()->stats();
  ASSERT_GT(st.grew_index + st.grew_read, 0u);

  std::vector<std::string> traces;
  for (const auto& e : fs::directory_iterator(dir))
    traces.push_back(e.path().string());
  ASSERT_EQ(traces.size(), 1u);
  const testjson::Value root = testjson::parse(slurp(traces[0]));
  std::uint64_t instants = 0;
  for (const testjson::Value& ev : root.arr)
    if (ev.at("ph").str == "i" && ev.at("name").str == "icache-repartition") {
      ++instants;
      EXPECT_TRUE(ev.at("args").has("old_index_bytes"));
      EXPECT_TRUE(ev.at("args").has("new_index_bytes"));
      EXPECT_TRUE(ev.at("args").has("index_fraction"));
    }
  // One instant per repartition (none of these run during warm-up), and
  // the registry counter agrees with the trace.
  EXPECT_EQ(instants, st.grew_index + st.grew_read);
  EXPECT_EQ(telem.metrics().counter("icache.repartitions").value(), instants);
  fs::remove_all(dir);
}

TEST(TelemetryReplay, ParallelRunsGetDistinctSuffixedFiles) {
  const Trace t = small_trace(600);
  const TelemetryDir env("parallel");
  const RunSpec spec = env.sinks_on(spec_for(EngineKind::kNative));
  (void)run_replay(spec, t);
  (void)run_replay(spec, t);
  // Same label twice: the process-wide run sequence still separates them.
  EXPECT_EQ(env.files_matching("trace.").size(), 2u);
  EXPECT_EQ(env.files_matching("series.").size(), 2u);
}

TEST(TelemetryRunPath, InsertsSeqAndLabelBeforeExtension) {
  EXPECT_EQ(telemetry_run_path("out/trace.json", 3, "web-vm-pod"),
            "out/trace.3-web-vm-pod.json");
  EXPECT_EQ(telemetry_run_path("series.csv", 0, "mail-native"),
            "series.0-mail-native.csv");
  // No extension: append.
  EXPECT_EQ(telemetry_run_path("out/trace", 1, "x"), "out/trace.1-x");
  // Dots in directories don't count as extensions.
  EXPECT_EQ(telemetry_run_path("out.d/trace", 2, "x"), "out.d/trace.2-x");
  // Label characters outside [A-Za-z0-9._-] are sanitized.
  EXPECT_EQ(telemetry_run_path("t.json", 4, "a/b c"), "t.4-a-b-c.json");
}

}  // namespace
}  // namespace pod

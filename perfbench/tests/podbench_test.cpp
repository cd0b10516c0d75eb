// Tests of the benchmark's own code: the forwarding volume, the traced
// replay, span self-time arithmetic, quartiles, and the metric names
// against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "harness.hpp"
#include "metrics.hpp"
#include "span_trace.hpp"
#include "synth/generator.hpp"

namespace podbench {
namespace {

/// A workload small enough for a unit test, on each benchmark engine.
Workload tiny(pod::EngineKind engine) {
  return {"tiny", engine, engine == pod::EngineKind::kPod ? "web-vm" : "mail",
          0.01};
}

const pod::EngineKind kEngines[] = {pod::EngineKind::kNative,
                                    pod::EngineKind::kFullDedupe,
                                    pod::EngineKind::kPod};

void expect_same_latency(const pod::LatencyRecorder& a,
                         const pod::LatencyRecorder& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.stats().sum(), b.stats().sum());
  EXPECT_EQ(a.stats().max(), b.stats().max());
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(a.percentile_ns(q), b.percentile_ns(q)) << "q=" << q;
}

void expect_same_stats(const pod::EngineStats& a, const pod::EngineStats& b) {
  EXPECT_EQ(a.write_requests, b.write_requests);
  EXPECT_EQ(a.read_requests, b.read_requests);
  EXPECT_EQ(a.write_blocks, b.write_blocks);
  EXPECT_EQ(a.read_blocks, b.read_blocks);
  EXPECT_EQ(a.writes_eliminated, b.writes_eliminated);
  EXPECT_EQ(a.chunks_deduped, b.chunks_deduped);
  EXPECT_EQ(a.chunks_written, b.chunks_written);
  for (int c = 0; c < 4; ++c)
    EXPECT_EQ(a.category_counts[c], b.category_counts[c]);
  EXPECT_EQ(a.index_disk_reads, b.index_disk_reads);
  EXPECT_EQ(a.index_disk_writes, b.index_disk_writes);
  EXPECT_EQ(a.read_ops_issued, b.read_ops_issued);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
}

TEST(TracingVolume, LeavesEveryReplayResultUnchanged) {
  for (pod::EngineKind kind : kEngines) {
    SCOPED_TRACE(pod::to_string(kind));
    const Workload w = tiny(kind);
    const pod::WorkloadProfile profile = make_profile(w, 7);
    const pod::RunSpec spec = make_spec(w, profile);
    const pod::Trace trace = pod::TraceGenerator(profile).generate();
    const pod::ReplayResult ref = pod::run_replay(
        spec, trace, pod::AdmissionMode::kStreaming, pod::PipelineConfig{});

    SpanTrace spans;
    pod::Simulator sim;
    TracingVolume volume(pod::make_volume(sim, spec), spans);
    const std::unique_ptr<pod::DedupEngine> engine =
        pod::make_engine(sim, volume, spec);
    pod::Replayer replayer;
    replayer.set_pipeline(pod::PipelineConfig{});
    const pod::ReplayResult got = replayer.replay(sim, *engine, trace);

    expect_same_latency(got.all, ref.all);
    expect_same_latency(got.reads, ref.reads);
    expect_same_latency(got.writes, ref.writes);
    expect_same_stats(got.measured, ref.measured);
    EXPECT_EQ(got.events_scheduled, ref.events_scheduled);
    EXPECT_EQ(got.peak_event_depth, ref.peak_event_depth);
    EXPECT_EQ(got.physical_blocks_used, ref.physical_blocks_used);
    EXPECT_EQ(got.map_table_bytes, ref.map_table_bytes);
    EXPECT_EQ(got.map_table_max_bytes, ref.map_table_max_bytes);
    EXPECT_EQ(got.chunks_hashed, ref.chunks_hashed);
    EXPECT_EQ(got.index_cache_bytes, ref.index_cache_bytes);
    EXPECT_EQ(got.read_cache_bytes, ref.read_cache_bytes);
    EXPECT_EQ(got.index_cache_hit_rate, ref.index_cache_hit_rate);
    EXPECT_EQ(got.read_cache_hit_rate, ref.read_cache_hit_rate);
    EXPECT_EQ(got.icache.adaptations, ref.icache.adaptations);
    EXPECT_EQ(got.icache.swap_blocks_read, ref.icache.swap_blocks_read);
    EXPECT_EQ(got.icache.swap_blocks_written, ref.icache.swap_blocks_written);
    EXPECT_EQ(got.final_index_fraction, ref.final_index_fraction);
    EXPECT_EQ(got.makespan, ref.makespan);

    // Volume-level results run_replay collects after the replay.
    const pod::VolumeCounters vc = volume.counters();
    EXPECT_EQ(vc.rmw_writes, ref.volume_counters.rmw_writes);
    EXPECT_EQ(vc.full_stripe_writes, ref.volume_counters.full_stripe_writes);
    ASSERT_EQ(volume.num_disks(), ref.per_disk.size());
    for (std::size_t d = 0; d < volume.num_disks(); ++d) {
      const pod::DiskStats& ds = volume.disk(d).stats();
      EXPECT_EQ(ds.reads, ref.per_disk[d].reads);
      EXPECT_EQ(ds.writes, ref.per_disk[d].writes);
      EXPECT_EQ(ds.blocks_written, ref.per_disk[d].blocks_written);
      EXPECT_EQ(ds.seek_cylinders.mean(), ref.per_disk[d].mean_seek_cylinders);
    }

    EXPECT_GT(layer_times(spans.spans())[static_cast<std::size_t>(
                  Layer::kRaidSubmit)].calls,
              0u);
    EXPECT_TRUE(spans.all_closed());
  }
}

TEST(TracedReplay, ReproducesRunReplay) {
  for (pod::EngineKind kind : kEngines) {
    SCOPED_TRACE(pod::to_string(kind));
    const Workload w = tiny(kind);
    const pod::WorkloadProfile profile = make_profile(w, 11);
    const HostRep host = run_untraced(w, profile);
    const TracedRep traced = run_traced(w, profile);
    EXPECT_EQ(outcome_of(traced.reads, traced.writes, traced.measured,
                         traced.events),
              outcome_of(host.result));
    EXPECT_EQ(traced.shape.checksum, host.shape.checksum);
    const LayerTimes t = layer_times(traced.spans.spans());
    EXPECT_EQ(t[static_cast<std::size_t>(Layer::kSimStep)].calls,
              traced.events + 1);
    EXPECT_EQ(t[static_cast<std::size_t>(Layer::kEnginesSubmit)].calls,
              host.shape.measured_reads + host.shape.measured_writes);
    EXPECT_EQ(t[static_cast<std::size_t>(Layer::kEnginesWarm)].calls,
              host.shape.warmup);
  }
}

TEST(SpanTrace, NestingParentsAndRequestIds) {
  SpanTrace t;
  t.begin(Layer::kReplayMeasured);
  t.begin(Layer::kEnginesSubmit, 42);
  t.begin(Layer::kRaidSubmit);
  t.end();
  t.end();
  t.begin(Layer::kSimStep);
  t.end();
  t.end();
  ASSERT_TRUE(t.all_closed());
  const std::vector<Span>& s = t.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, kNoParent);
  EXPECT_EQ(s[1].parent, 0u);
  EXPECT_EQ(s[2].parent, 1u);
  EXPECT_EQ(s[2].request, 42u);  // inherited from the submit that made the call
  EXPECT_EQ(s[3].parent, 0u);
  EXPECT_EQ(s[3].request, 0u);
  for (const Span& sp : s) EXPECT_LE(sp.start_ns, sp.end_ns);
}

TEST(SpanTrace, SelfTimeSubtractsDirectChildren) {
  // measured [0,100) holds submit [10,40) (which holds raid [15,25)) and
  // step [50,90) (which holds raid [60,65) and raid [70,72)).
  const std::vector<Span> spans = {
      {0, 100, 0, kNoParent, Layer::kReplayMeasured},
      {10, 40, 1, 0, Layer::kEnginesSubmit},
      {15, 25, 1, 1, Layer::kRaidSubmit},
      {50, 90, 0, 0, Layer::kSimStep},
      {60, 65, 0, 3, Layer::kRaidSubmit},
      {70, 72, 0, 3, Layer::kRaidSubmit},
  };
  const LayerTimes t = layer_times(spans);
  const auto& measured = t[static_cast<std::size_t>(Layer::kReplayMeasured)];
  const auto& submit = t[static_cast<std::size_t>(Layer::kEnginesSubmit)];
  const auto& step = t[static_cast<std::size_t>(Layer::kSimStep)];
  const auto& raid = t[static_cast<std::size_t>(Layer::kRaidSubmit)];
  EXPECT_EQ(measured.total_ns, 100);
  EXPECT_EQ(measured.self_ns, 100 - 30 - 40);
  EXPECT_EQ(submit.self_ns, 30 - 10);
  EXPECT_EQ(step.self_ns, 40 - 5 - 2);
  EXPECT_EQ(raid.calls, 3u);
  EXPECT_EQ(raid.total_ns, 17);
  EXPECT_EQ(raid.self_ns, 17);
  // Self times of every span partition the root's interval.
  std::int64_t self_sum = 0;
  for (const LayerTime& l : t) self_sum += l.self_ns;
  EXPECT_EQ(self_sum, measured.total_ns);
}

TEST(Metrics, QuartilesMatchPythonStatistics) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto [q1, q3] = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q1, 2.75);
  EXPECT_DOUBLE_EQ(q3, 8.25);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const auto [r1, r3] = quartiles({4, 1, 2});
  EXPECT_DOUBLE_EQ(r1, 1.0);
  EXPECT_DOUBLE_EQ(r3, 4.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

std::map<std::string, std::string> declared(const pod::minjson::Value& doc,
                                            const std::string& section) {
  std::map<std::string, std::string> out;
  for (const pod::minjson::Value& m : doc.at(section).arr)
    out[m.at("name").str] = m.at("unit").str;
  return out;
}

std::map<std::string, std::string> emitted(const Report& report) {
  std::map<std::string, std::string> out;
  for (const Metric& m : report) {
    EXPECT_EQ(out.count(m.name), 0u) << "duplicate metric " << m.name;
    out[m.name] = m.unit;
  }
  return out;
}

TEST(Metrics, HostTimesAreScaledToReferenceSpeed) {
  // The run's median reference time is twice the nominal one, so every
  // host timing is reported at half its measured value.
  std::vector<HostRep> host(3);
  const double reference[] = {1.5, 2.0, 2.5};
  const double replay[] = {2.0, 4.0, 6.0};
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i].reference_s = reference[i] * kReferenceNominalS;
    host[i].generate_s = 0.75;
    host[i].build_s = 0.25;
    host[i].replay_s = replay[i];
    host[i].cpu_s = replay[i] + 1.0;
  }
  std::map<std::string, double> got;
  for (const Metric& m : end_to_end_report(host, SimOutcome{}, 1.0))
    got[m.name] = m.value;
  EXPECT_DOUBLE_EQ(got.at("setup_s"), 0.5);
  EXPECT_DOUBLE_EQ(got.at("replay_s"), 2.0);
  EXPECT_DOUBLE_EQ(got.at("cpu_s"), 2.5);
}

TEST(Metrics, NamesAndUnitsMatchBenchmarkJson) {
  std::ifstream in(PODBENCH_JSON);
  ASSERT_TRUE(in) << PODBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const pod::minjson::Value doc = pod::minjson::Parser(text.str()).parse();

  std::vector<std::string> workload_names;
  for (const pod::minjson::Value& v : doc.at("workloads").arr)
    workload_names.push_back(v.at("name").str);
  std::vector<std::string> ours;
  for (const Workload& w : workloads()) ours.push_back(w.name);
  EXPECT_EQ(workload_names, ours);

  const Workload w = tiny(pod::EngineKind::kPod);
  const pod::WorkloadProfile profile = make_profile(w, 3);
  const std::vector<HostRep> host = {run_untraced(w, profile)};
  const TracedRep traced = run_traced(w, profile);
  const std::vector<LayerTimes> times = {layer_times(traced.spans.spans())};

  EXPECT_EQ(emitted(end_to_end_report(host, outcome_of(host[0].result), 1.0)),
            declared(doc, "end_to_end"));
  EXPECT_EQ(emitted(layer_report(host, host[0].result, times, traced)),
            declared(doc, "per_layer"));
}

}  // namespace
}  // namespace podbench

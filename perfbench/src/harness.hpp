// The benchmark's workloads and its two ways to replay.
//
// Untraced: one pod::run_replay per repetition, timed from outside (wall,
// process CPU, minor faults), as a library user runs a replay with the
// pipeline off.
//
// Traced: the benchmark replays the same trace itself through public calls
// (TraceGenerator::generate, make_volume/make_engine, DedupEngine::warm and
// submit, Simulator::advance_to/step, and Volume::submit through a
// forwarding volume), recording one span per call. Its admission rule is
// the library's streaming rule, so both must produce identical
// simulated results; the benchmark checks that they do.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "replay/replayer.hpp"
#include "span_trace.hpp"
#include "synth/profile.hpp"

namespace podbench {

struct Workload {
  std::string name;
  pod::EngineKind engine = pod::EngineKind::kNative;
  std::string profile;  // "mail" or "web-vm"
  double scale = 1.0;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// Null when no workload has that name.
const Workload* find_workload(const std::string& name);

/// The workload's trace profile with `seed` as its generator seed.
pod::WorkloadProfile make_profile(const Workload& w, std::uint64_t seed);
/// The profile's own built-in seed (the default when no seed is given).
std::uint64_t default_seed(const Workload& w);

/// The paper's 4-disk RAID5, 64 KB stripe unit, per-trace memory budget;
/// faults off and the default (fused) probe path, all set explicitly so no
/// environment variable reaches the run.
pod::RunSpec make_spec(const Workload& w, const pod::WorkloadProfile& profile);

/// The replay pipeline every untraced replay runs with: off, so a replay is
/// one thread. The library's default prepare thread hands batches over
/// through a yield-spinning ring; on a host shared with other tenants that
/// made replay_s and cpu_s follow the scheduler more than the program.
pod::PipelineConfig bench_pipeline();

/// Forwards every call to a wrapped volume and records each submit as a
/// raid.submit span, nested under whichever span made the call (an engine
/// submit or a simulator step).
class TracingVolume final : public pod::Volume {
 public:
  TracingVolume(std::unique_ptr<pod::Volume> inner, SpanTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void submit(pod::VolumeIo io) override {
    SpanTrace::Scope span(trace_, Layer::kRaidSubmit);
    inner_->submit(std::move(io));
  }
  std::uint64_t capacity_blocks() const override {
    return inner_->capacity_blocks();
  }
  std::size_t num_disks() const override { return inner_->num_disks(); }
  const pod::Disk& disk(std::size_t i) const override { return inner_->disk(i); }
  pod::VolumeCounters counters() const override { return inner_->counters(); }
  const pod::FaultInjector* fault_injector() const override {
    return inner_->fault_injector();
  }

 private:
  std::unique_ptr<pod::Volume> inner_;
  SpanTrace& trace_;
};

/// The simulated results both replays must reproduce exactly.
struct SimOutcome {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double read_sum_ns = 0;
  double write_sum_ns = 0;
  double read_p50_ns = 0;
  double read_p99_ns = 0;
  double read_p999_ns = 0;
  double write_p50_ns = 0;
  double write_p99_ns = 0;
  double write_p999_ns = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t chunks_deduped = 0;
  std::uint64_t events = 0;
  std::uint64_t failed = 0;

  bool operator==(const SimOutcome&) const = default;
  /// Measured-phase chunks physically written per chunk of user data.
  double stored_per_written() const;
};

SimOutcome outcome_of(const pod::LatencyRecorder& reads,
                      const pod::LatencyRecorder& writes,
                      const pod::EngineStats& measured, std::uint64_t events);
SimOutcome outcome_of(const pod::ReplayResult& r);

/// Order-sensitive checksum over every request field the replay reads.
std::uint64_t trace_checksum(const pod::Trace& trace);

/// What the measured suffix of a trace holds.
struct TraceShape {
  std::uint64_t requests = 0;
  std::uint64_t warmup = 0;
  std::uint64_t measured_reads = 0;
  std::uint64_t measured_writes = 0;
  std::uint64_t checksum = 0;
};
TraceShape shape_of(const pod::Trace& trace);

/// Wall seconds of a fixed amount of host work that no library change can
/// alter: fill 64 MB of freshly allocated memory by inserting 1.5M
/// pseudo-random keys into an open-addressing table, then look every key
/// up. Its time tracks how fast the shared host runs memory-bound code at
/// the moment, the way a replay's does.
double reference_kernel_s();

/// One untraced repetition: reference kernel, generate, build, run_replay
/// (bench_pipeline()).
struct HostRep {
  double reference_s = 0;
  double generate_s = 0;
  double build_s = 0;
  double replay_s = 0;
  /// Process user+sys CPU over run_replay (every thread).
  double cpu_s = 0;
  /// The calling thread's share of cpu_s.
  double replay_thread_cpu_s = 0;
  std::uint64_t minor_faults = 0;
  TraceShape shape;
  pod::ReplayResult result;
};
HostRep run_untraced(const Workload& w, const pod::WorkloadProfile& profile);

/// One traced repetition through the benchmark's own replay loop.
struct TracedRep {
  SpanTrace spans;
  TraceShape shape;
  pod::LatencyRecorder reads;
  pod::LatencyRecorder writes;
  pod::EngineStats measured;
  std::uint64_t events = 0;  // measured-phase events scheduled
  // Cache counters over the whole replay (warm-up + measured).
  std::uint64_t index_hits = 0;
  std::uint64_t index_misses = 0;
  std::uint64_t index_ghost_hits = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
};
TracedRep run_traced(const Workload& w, const pod::WorkloadProfile& profile);

}  // namespace podbench

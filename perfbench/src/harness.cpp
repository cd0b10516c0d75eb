#include "harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <stdexcept>
#include <vector>

#include "synth/generator.hpp"

namespace podbench {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

pod::WorkloadProfile base_profile(const Workload& w) {
  return w.profile == "mail" ? pod::mail_profile(w.scale)
                             : pod::web_vm_profile(w.scale);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      // Why each workload exists: BENCHMARK.json and perfbench/README.md.
      {"mail-fulldedupe", pod::EngineKind::kFullDedupe, "mail", 0.25},
      {"webvm-pod", pod::EngineKind::kPod, "web-vm", 1.0},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

pod::WorkloadProfile make_profile(const Workload& w, std::uint64_t seed) {
  pod::WorkloadProfile p = base_profile(w);
  p.seed = seed;
  return p;
}

std::uint64_t default_seed(const Workload& w) { return base_profile(w).seed; }

pod::RunSpec make_spec(const Workload& w, const pod::WorkloadProfile& profile) {
  pod::RunSpec spec;
  spec.engine = w.engine;
  spec.raid = pod::RaidLevel::kRaid5;
  spec.array_cfg.num_disks = 4;
  spec.array_cfg.stripe_unit_blocks = 16;  // 64 KB
  spec.array_cfg.fault = pod::FaultConfig{};
  spec.engine_cfg.logical_blocks = profile.volume_blocks;
  spec.engine_cfg.memory_bytes = pod::paper_memory_bytes(profile.name, w.scale);
  spec.engine_cfg.scalar_probes = false;
  spec.engine_cfg.fused_probes = true;
  return spec;
}

pod::PipelineConfig bench_pipeline() {
  pod::PipelineConfig pipe;
  pipe.enabled = false;
  return pipe;
}

double SimOutcome::stored_per_written() const {
  const std::uint64_t user = chunks_written + chunks_deduped;
  return user == 0 ? 0.0
                   : static_cast<double>(chunks_written) /
                         static_cast<double>(user);
}

SimOutcome outcome_of(const pod::LatencyRecorder& reads,
                      const pod::LatencyRecorder& writes,
                      const pod::EngineStats& measured, std::uint64_t events) {
  SimOutcome o;
  o.reads = reads.count();
  o.writes = writes.count();
  o.read_sum_ns = reads.stats().sum();
  o.write_sum_ns = writes.stats().sum();
  o.read_p50_ns = reads.percentile_ns(0.5);
  o.read_p99_ns = reads.percentile_ns(0.99);
  o.read_p999_ns = reads.percentile_ns(0.999);
  o.write_p50_ns = writes.percentile_ns(0.5);
  o.write_p99_ns = writes.percentile_ns(0.99);
  o.write_p999_ns = writes.percentile_ns(0.999);
  o.chunks_written = measured.chunks_written;
  o.chunks_deduped = measured.chunks_deduped;
  o.events = events;
  o.failed = measured.failed_requests;
  return o;
}

SimOutcome outcome_of(const pod::ReplayResult& r) {
  return outcome_of(r.reads, r.writes, r.measured, r.events_scheduled);
}

std::uint64_t trace_checksum(const pod::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(trace.warmup_count);
  for (const pod::IoRequest& r : trace.requests) {
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.arrival));
    mix(static_cast<std::uint64_t>(r.type));
    mix(r.lba);
    mix(r.nblocks);
    for (const pod::Fingerprint& fp : r.chunks) mix(fp.prefix64());
  }
  return h;
}

TraceShape shape_of(const pod::Trace& trace) {
  TraceShape s;
  s.requests = trace.requests.size();
  s.warmup = trace.warmup_count;
  for (std::size_t i = trace.warmup_count; i < trace.requests.size(); ++i) {
    if (trace.requests[i].is_write()) ++s.measured_writes;
    else ++s.measured_reads;
  }
  s.checksum = trace_checksum(trace);
  return s;
}

double reference_kernel_s() {
  constexpr int kBits = 22;
  constexpr std::size_t kSlots = std::size_t{1} << kBits;
  constexpr std::size_t kMask = kSlots - 1;
  constexpr std::size_t kKeys = std::size_t{3} << 19;
  const auto key = [](std::uint64_t i) {
    std::uint64_t z = i * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1;  // 0 marks an empty slot
  };
  const auto home = [](std::uint64_t k) {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >> (64 - kBits));
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> keys(kSlots, 0);
  std::vector<std::uint64_t> values(kSlots, 0);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::uint64_t k = key(i + 1);
    std::size_t h = home(k);
    while (keys[h] != 0 && keys[h] != k) h = (h + 1) & kMask;
    keys[h] = k;
    values[h] = i;
  }
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::uint64_t k = key(i + 1);
    std::size_t h = home(k);
    while (keys[h] != k) h = (h + 1) & kMask;
    sum += values[h];
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Every key was found once, so the values sum to 0 + 1 + ... + kKeys-1;
  // checking it keeps the compiler from dropping the loops.
  if (sum != kKeys * (kKeys - 1) / 2)
    throw std::logic_error("reference kernel lost a key");
  return seconds_between(t0, t1);
}

HostRep run_untraced(const Workload& w, const pod::WorkloadProfile& profile) {
  using Clock = std::chrono::steady_clock;
  HostRep rep;
  const pod::RunSpec spec = make_spec(w, profile);
  // Before the trace exists, so the kernel's memory never adds to the
  // replay's peak resident set.
  rep.reference_s = reference_kernel_s();

  const auto t0 = Clock::now();
  const pod::Trace trace = pod::TraceGenerator(profile).generate();
  const auto t1 = Clock::now();
  {
    // run_replay builds its own volume and engine; this build is set-up
    // cost a user pays before any replay, timed on its own.
    pod::Simulator sim;
    const std::unique_ptr<pod::Volume> volume = pod::make_volume(sim, spec);
    const std::unique_ptr<pod::DedupEngine> engine =
        pod::make_engine(sim, *volume, spec);
  }
  const auto t2 = Clock::now();

  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  const double c0 = thread_cpu_s();
  const auto t3 = Clock::now();
  rep.result = pod::run_replay(spec, trace, pod::AdmissionMode::kStreaming,
                              bench_pipeline());
  const auto t4 = Clock::now();
  const double c1 = thread_cpu_s();
  getrusage(RUSAGE_SELF, &ru1);

  rep.generate_s = seconds_between(t0, t1);
  rep.build_s = seconds_between(t1, t2);
  rep.replay_s = seconds_between(t3, t4);
  rep.cpu_s = tv_s(ru1.ru_utime) + tv_s(ru1.ru_stime) - tv_s(ru0.ru_utime) -
              tv_s(ru0.ru_stime);
  rep.replay_thread_cpu_s = c1 - c0;
  rep.minor_faults = static_cast<std::uint64_t>(ru1.ru_minflt - ru0.ru_minflt);
  rep.shape = shape_of(trace);
  return rep;
}

namespace {

/// The traced replay's warm-up and measured loops over a built engine.
void traced_replay(pod::Simulator& sim, pod::DedupEngine& engine,
                   const pod::Trace& trace, TracedRep& rep) {
  SpanTrace& t = rep.spans;
  {
    SpanTrace::Scope phase(t, Layer::kReplayWarm);
    for (std::size_t i = 0; i < trace.warmup_count; ++i) {
      const pod::IoRequest& req = trace.requests[i];
      SpanTrace::Scope span(t, Layer::kEnginesWarm, req.id + 1);
      engine.warm(req);
    }
  }

  const pod::EngineStats before = engine.stats();
  engine.begin_measured();
  const std::size_t first = trace.warmup_count;
  const std::size_t total = trace.requests.size();
  const std::uint64_t scheduled_before = sim.events_scheduled();
  if (first < total) {
    SpanTrace::Scope phase(t, Layer::kReplayMeasured);
    const pod::SimTime t0 = trace.requests[first].arrival;
    std::size_t next = first;
    while (true) {
      if (next < total) {
        const pod::IoRequest& req = trace.requests[next];
        const pod::SimTime arrival = req.arrival - t0;
        // The library's streaming rule: an arrival is admitted iff it is
        // not later than every pending event.
        if (sim.idle() || arrival <= sim.next_event_time()) {
          sim.advance_to(arrival);
          pod::LatencyRecorder& rec =
              req.is_write() ? rep.writes : rep.reads;
          SpanTrace::Scope span(t, Layer::kEnginesSubmit, req.id + 1);
          engine.submit(req, [&sim, &rec, arrival](pod::IoStatus) {
            rec.add(sim.now() - arrival);
          });
          ++next;
          continue;
        }
      }
      SpanTrace::Scope span(t, Layer::kSimStep);
      if (!sim.step()) break;
    }
  }
  rep.measured = pod::EngineStats::delta(engine.stats(), before);
  rep.events = sim.events_scheduled() - scheduled_before;
  if (const pod::IndexCache* ic = engine.index_cache()) {
    rep.index_hits = ic->hits();
    rep.index_misses = ic->misses();
    rep.index_ghost_hits = ic->ghost_hits();
  }
  rep.read_hits = engine.read_cache().hits();
  rep.read_misses = engine.read_cache().misses();
}

}  // namespace

TracedRep run_traced(const Workload& w, const pod::WorkloadProfile& profile) {
  TracedRep rep;
  SpanTrace& t = rep.spans;
  pod::Trace trace;
  {
    SpanTrace::Scope span(t, Layer::kSynthGenerate);
    trace = pod::TraceGenerator(profile).generate();
  }
  // Reserved, not touched: untouched capacity costs no resident memory, and
  // no reallocation lands inside a timed span.
  t.reserve(trace.requests.size() * 16 + 1024);
  const pod::RunSpec spec = make_spec(w, profile);
  pod::Simulator sim;
  std::unique_ptr<TracingVolume> volume;
  std::unique_ptr<pod::DedupEngine> engine;
  {
    SpanTrace::Scope span(t, Layer::kReplayBuild);
    volume = std::make_unique<TracingVolume>(pod::make_volume(sim, spec), t);
    engine = pod::make_engine(sim, *volume, spec);
  }
  traced_replay(sim, *engine, trace, rep);
  rep.shape = shape_of(trace);
  return rep;
}

}  // namespace podbench

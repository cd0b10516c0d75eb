#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/resource.hpp"
#include "hash/simd.hpp"
#include "trace/trace_cache.hpp"

namespace pod::bench {

const RunOptions& options() {
  static const RunOptions opts = [] {
    try {
      RunOptions parsed = RunOptions::parse_environment();
      if (parsed.simd) cap_simd_tier(*parsed.simd);
      return parsed;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }();
  return opts;
}

double scale_from_env() { return options().scale; }

std::vector<WorkloadProfile> selected_profiles(double scale) {
  std::vector<WorkloadProfile> all = paper_profiles(scale);
  if (options().trace.empty()) return all;
  std::vector<WorkloadProfile> out;
  for (auto& p : all)
    if (p.name == options().trace) out.push_back(std::move(p));
  return out;
}

namespace {

/// Per-process trace memo, guarded for concurrent first-population. Keyed
/// by the full cache key (name + param hash), so two profiles sharing a
/// name but differing in scale/seed never alias within one process.
struct TraceMemo {
  std::mutex mu;
  std::map<std::string, Trace> traces;
};

TraceMemo& trace_memo() {
  static TraceMemo memo;
  return memo;
}

/// Unlocked lookup-or-adopt; caller holds memo.mu.
const Trace* memo_find(TraceMemo& memo, const std::string& key) {
  auto it = memo.traces.find(key);
  return it == memo.traces.end() ? nullptr : &it->second;
}

}  // namespace

const Trace& trace_for(const WorkloadProfile& profile) {
  TraceMemo& memo = trace_memo();
  const std::string key = trace_cache_key(profile);
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    if (const Trace* hit = memo_find(memo, key)) return *hit;
  }
  // Generate (or cache-load) OUTSIDE the lock: holding the memo mutex
  // across multi-second trace generation serializes every *other* profile's
  // first access behind this one. Concurrent callers of the same profile
  // may race and generate twice; the loser's copy is discarded below
  // (insert-or-discard), which costs duplicate work only in that narrow
  // race instead of a global stall on every cold start.
  if (options().trace_cache.empty()) {
    std::fprintf(stderr, "[bench] generating trace %s (%llu requests)...\n",
                 profile.name.c_str(),
                 static_cast<unsigned long long>(profile.warmup_requests +
                                                 profile.measured_requests));
  }
  Trace generated = obtain_trace(profile, options().trace_cache);
  std::lock_guard<std::mutex> lock(memo.mu);
  if (const Trace* hit = memo_find(memo, key)) return *hit;
  // std::map nodes are stable: the reference outlives later insertions.
  return memo.traces.emplace(key, std::move(generated)).first->second;
}

void prefetch_traces(const std::vector<WorkloadProfile>& profiles) {
  TraceMemo& memo = trace_memo();
  std::vector<WorkloadProfile> missing;
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    for (const WorkloadProfile& p : profiles)
      if (memo_find(memo, trace_cache_key(p)) == nullptr)
        missing.push_back(p);
  }
  if (missing.empty()) return;
  std::vector<Trace> traces =
      obtain_traces(missing, bench_jobs(), options().trace_cache);
  std::lock_guard<std::mutex> lock(memo.mu);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    const std::string key = trace_cache_key(missing[i]);
    if (memo_find(memo, key) == nullptr)
      memo.traces.emplace(key, std::move(traces[i]));
  }
}

std::vector<EngineKind> figure8_engines() {
  return {EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
          EngineKind::kSelectDedupe};
}

std::vector<EngineKind> figure11_engines() {
  return {EngineKind::kNative, EngineKind::kFullDedupe, EngineKind::kIDedup,
          EngineKind::kSelectDedupe, EngineKind::kPod};
}

RunSpec paper_spec(EngineKind engine, const WorkloadProfile& profile,
                   double scale) {
  RunSpec spec;
  spec.engine = engine;
  spec.raid = RaidLevel::kRaid5;
  spec.array_cfg.num_disks = 4;              // 4-disk RAID5 (§IV-B)
  spec.array_cfg.stripe_unit_blocks = 16;    // 64 KB stripe unit
  spec.engine_cfg.logical_blocks = profile.volume_blocks;
  spec.engine_cfg.memory_bytes = paper_memory_bytes(profile.name, scale);
  // Faults, telemetry and anatomy stay off unless a POD_* knob turns them
  // on, so a default bench run is byte-identical run to run.
  options().apply(spec);
  return spec;
}

std::size_t bench_jobs() { return options().jobs; }

std::map<EngineKind, ReplayResult> run_engine_set(
    const std::vector<EngineKind>& engines, const WorkloadProfile& profile,
    double scale) {
  // Populate the memo before fanning out; every run shares the trace
  // read-only. (trace_for itself is now thread-safe, but resolving it here
  // keeps generation cost out of the first worker's run.)
  const Trace& trace = trace_for(profile);

  std::vector<ParallelRunner::RunItem> items;
  items.reserve(engines.size());
  for (EngineKind kind : engines) {
    std::fprintf(stderr, "[bench] %-9s x %s...\n", profile.name.c_str(),
                 to_string(kind));
    items.push_back({paper_spec(kind, profile, scale), &trace});
  }

  const ParallelRunner runner(bench_jobs());
  std::vector<ReplayResult> run_results = runner.run(items);

  std::map<EngineKind, ReplayResult> results;
  for (std::size_t i = 0; i < engines.size(); ++i)
    results.emplace(engines[i], std::move(run_results[i]));
  emit_replay_counters_json(results);
  return results;
}

namespace {

/// Appends the `"anatomy":{...}` member (leading comma included) for one
/// run's attribution summary: per-component totals/distributions, the
/// per-stream accounting table, and the retained tail decompositions.
void emit_anatomy_json(std::FILE* f, const AnatomyResult& a) {
  std::fprintf(f,
               ",\"anatomy\":{\"requests\":%llu,\"sum_mismatches\":%llu,"
               "\"tail_k\":%llu,\"components\":{",
               static_cast<unsigned long long>(a.requests),
               static_cast<unsigned long long>(a.sum_mismatches),
               static_cast<unsigned long long>(a.tail_k));
  for (std::size_t c = 0; c < kNumLatComps; ++c) {
    const LatencyRecorder& rec = a.comp[c];
    std::fprintf(f,
                 "%s\"%s\":{\"total_ms\":%.6f,\"mean_ms\":%.6f,"
                 "\"p50_ms\":%.6f,\"p95_ms\":%.6f,\"p99_ms\":%.6f,"
                 "\"max_ms\":%.6f}",
                 c == 0 ? "" : ",", to_string(static_cast<LatComp>(c)),
                 static_cast<double>(a.total[c]) / kMillisecond, rec.mean_ms(),
                 rec.percentile_ms(0.50), rec.percentile_ms(0.95),
                 rec.percentile_ms(0.99), rec.max_ms());
  }
  std::fprintf(f, "},\"streams\":[");
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const AnatomyResult::StreamStats& s = a.streams[i];
    std::fprintf(f,
                 "%s{\"stream\":%u,\"reads\":%llu,\"writes\":%llu,"
                 "\"read_blocks\":%llu,\"write_blocks\":%llu,"
                 "\"dedup_hits\":%llu,\"failed_requests\":%llu,"
                 "\"mean_ms\":%.6f,\"p50_ms\":%.6f,\"p95_ms\":%.6f,"
                 "\"p99_ms\":%.6f,\"max_ms\":%.6f}",
                 i == 0 ? "" : ",", s.stream,
                 static_cast<unsigned long long>(s.reads),
                 static_cast<unsigned long long>(s.writes),
                 static_cast<unsigned long long>(s.read_blocks),
                 static_cast<unsigned long long>(s.write_blocks),
                 static_cast<unsigned long long>(s.dedup_hits),
                 static_cast<unsigned long long>(s.failed_requests),
                 s.latency.mean_ms(), s.latency.percentile_ms(0.50),
                 s.latency.percentile_ms(0.95), s.latency.percentile_ms(0.99),
                 s.latency.max_ms());
  }
  std::fprintf(f, "],\"tail\":[");
  for (std::size_t i = 0; i < a.tail.size(); ++i) {
    const AnatomyResult::TailEntry& t = a.tail[i];
    std::fprintf(f,
                 "%s{\"req_id\":%llu,\"stream\":%u,\"type\":\"%s\","
                 "\"nblocks\":%u,\"submit_ms\":%.6f,\"latency_ms\":%.6f,"
                 "\"components\":{",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(t.req_id),
                 t.stream, t.type == OpType::kWrite ? "W" : "R", t.nblocks,
                 static_cast<double>(t.submit) / kMillisecond,
                 static_cast<double>(t.latency) / kMillisecond);
    for (std::size_t c = 0; c < kNumLatComps; ++c) {
      std::fprintf(f, "%s\"%s\":%.6f", c == 0 ? "" : ",",
                   to_string(static_cast<LatComp>(c)),
                   static_cast<double>(t.breakdown.comp[c]) / kMillisecond);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "]}");
}

}  // namespace

void emit_replay_counters_json(
    const std::map<EngineKind, ReplayResult>& results) {
  const std::string& path = options().bench_json;
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot append to POD_BENCH_JSON=%s\n",
                 path.c_str());
    return;
  }
  for (const auto& [kind, r] : results) {
    // Long-standing keys first, unchanged, so existing consumers keep
    // parsing; the per-disk / parity / iCache / telemetry keys are appended.
    std::fprintf(
        f,
        "{\"trace\":\"%s\",\"engine\":\"%s\",\"mean_ms\":%.6f,"
        "\"events_scheduled\":%llu,\"peak_event_depth\":%llu,"
        "\"peak_rss_bytes\":%llu,\"batch_probes\":%llu,"
        "\"scratch_bytes\":%llu",
        r.trace_name.c_str(), to_string(kind), r.mean_ms(),
        static_cast<unsigned long long>(r.events_scheduled),
        static_cast<unsigned long long>(r.peak_event_depth),
        static_cast<unsigned long long>(r.peak_rss_bytes),
        static_cast<unsigned long long>(r.batch_probes),
        static_cast<unsigned long long>(r.scratch_bytes));
    // Host execution context: makes a JSON line interpretable on its own
    // (which SIMD tier the kernels dispatched to, whether the intra-replay
    // pipeline could run — on a 1-core host it auto-disables and the run
    // is the honest single-threaded baseline).
    const unsigned hw = std::thread::hardware_concurrency();
    std::fprintf(
        f,
        ",\"host\":{\"hw_threads\":%u,\"simd_tier\":\"%s\","
        "\"pipeline_enabled\":%s,\"pipeline_depth\":%llu,"
        "\"pipeline_batches\":%llu}",
        hw > 0 ? hw : 1, to_string(active_simd_tier()),
        r.pipeline.enabled ? "true" : "false",
        static_cast<unsigned long long>(r.pipeline.depth),
        static_cast<unsigned long long>(r.pipeline.batches));
    std::fprintf(
        f,
        ",\"full_stripe_writes\":%llu,\"rmw_writes\":%llu,"
        "\"icache_adaptations\":%llu,\"final_index_fraction\":%.6f",
        static_cast<unsigned long long>(r.volume_counters.full_stripe_writes),
        static_cast<unsigned long long>(r.volume_counters.rmw_writes),
        static_cast<unsigned long long>(r.icache.adaptations),
        r.final_index_fraction);
    std::fprintf(f, ",\"per_disk\":[");
    for (std::size_t d = 0; d < r.per_disk.size(); ++d) {
      const ReplayResult::DiskBreakdown& b = r.per_disk[d];
      std::fprintf(
          f,
          "%s{\"reads\":%llu,\"writes\":%llu,\"blocks_read\":%llu,"
          "\"blocks_written\":%llu,\"sequential_hits\":%llu,"
          "\"busy_ms\":%.6f,\"mean_queue_depth\":%.6f,"
          "\"mean_seek_cylinders\":%.6f}",
          d == 0 ? "" : ",", static_cast<unsigned long long>(b.reads),
          static_cast<unsigned long long>(b.writes),
          static_cast<unsigned long long>(b.blocks_read),
          static_cast<unsigned long long>(b.blocks_written),
          static_cast<unsigned long long>(b.sequential_hits), b.busy_ms,
          b.mean_queue_depth, b.mean_seek_cylinders);
    }
    std::fprintf(f, "]");
    if (!r.telemetry_counters.empty()) {
      // Registry names are [a-z0-9._-] by construction — safe unescaped.
      std::fprintf(f, ",\"telemetry\":{");
      for (std::size_t i = 0; i < r.telemetry_counters.size(); ++i) {
        std::fprintf(f, "%s\"%s\":%.6g", i == 0 ? "" : ",",
                     r.telemetry_counters[i].first.c_str(),
                     r.telemetry_counters[i].second);
      }
      std::fprintf(f, "}");
    }
    if (r.anatomy.enabled) emit_anatomy_json(f, r.anatomy);
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
}

void print_anatomy_tables(const std::string& trace_name,
                          const std::map<EngineKind, ReplayResult>& results) {
  const bool any_enabled =
      std::any_of(results.begin(), results.end(),
                  [](const auto& kv) { return kv.second.anatomy.enabled; });
  if (!any_enabled) return;

  // Component breakdown: mean milliseconds a request spends in each
  // component (rows sum to the engine's mean response time).
  std::printf("  latency anatomy (%s): mean ms per request by component\n",
              trace_name.c_str());
  std::printf("  %-14s", "engine");
  for (std::size_t c = 0; c < kNumLatComps; ++c)
    std::printf(" %11s", to_string(static_cast<LatComp>(c)));
  std::printf("\n");
  for (const auto& [kind, r] : results) {
    if (!r.anatomy.enabled) continue;
    std::printf("  %-14s", to_string(kind));
    for (std::size_t c = 0; c < kNumLatComps; ++c)
      std::printf(" %11.3f", r.anatomy.comp[c].mean_ms());
    std::printf("\n");
  }

  // Tail anatomy: opt-in via POD_TAIL_ANATOMY — the forensic view of the
  // slowest retained requests, decomposed.
  if (!options().tail_anatomy) return;
  constexpr std::size_t kPrintTail = 5;
  for (const auto& [kind, r] : results) {
    const AnatomyResult& a = r.anatomy;
    if (!a.enabled || a.tail.empty()) continue;
    std::printf("  tail anatomy (%s x %s): slowest %zu of %zu retained\n",
                trace_name.c_str(), to_string(kind),
                std::min(kPrintTail, a.tail.size()), a.tail.size());
    std::printf("  %10s %2s %6s %6s %10s |", "req_id", "op", "blocks",
                "stream", "lat_ms");
    for (std::size_t c = 0; c < kNumLatComps; ++c)
      std::printf(" %9s", to_string(static_cast<LatComp>(c)));
    std::printf("\n");
    for (std::size_t i = 0; i < std::min(kPrintTail, a.tail.size()); ++i) {
      const AnatomyResult::TailEntry& t = a.tail[i];
      std::printf("  %10llu %2s %6u %6u %10.3f |",
                  static_cast<unsigned long long>(t.req_id),
                  t.type == OpType::kWrite ? "W" : "R", t.nblocks, t.stream,
                  static_cast<double>(t.latency) / kMillisecond);
      for (std::size_t c = 0; c < kNumLatComps; ++c)
        std::printf(" %9.3f",
                    static_cast<double>(t.breakdown.comp[c]) / kMillisecond);
      std::printf("\n");
    }
  }
}

void print_header(const std::string& title, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("================================================================\n");
}

void print_row(const std::string& label, const std::vector<double>& values,
               const char* unit) {
  std::printf("%-16s", label.c_str());
  for (const double v : values) std::printf("  %10.2f%s", v, unit);
  std::printf("\n");
}

}  // namespace pod::bench

// Shared machinery for the experiment benches (one binary per paper
// table/figure; see DESIGN.md's experiment index).
//
// Every bench reads its POD_* knobs through options(), which parses the
// whole knob table once (src/replay/run_options.hpp; README.md lists every
// knob) and rejects a malformed value before any work starts. paper_spec()
// copies the per-run settings into each RunSpec. POD_BENCH_JSON names a
// file that receives one JSON object per run: mean latency, events
// scheduled, peak event-heap depth, peak RSS, host context (hardware
// threads, SIMD tier, pipeline state), per-disk breakdowns, RAID5 parity
// write modes, iCache state, the telemetry snapshot when telemetry is on,
// and an "anatomy" object when latency anatomy is on.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "replay/parallel_runner.hpp"
#include "replay/replayer.hpp"
#include "replay/run_options.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace pod::bench {

/// The POD_* knobs, parsed on first call. A malformed value prints
/// "[pod] NAME='value': want <form>" and exits 2; every bench reaches this
/// (directly or through scale_from_env) before doing any work.
const RunOptions& options();

/// Scale factor from POD_SCALE (default 0.25).
double scale_from_env();

/// Paper workloads honouring POD_TRACE.
std::vector<WorkloadProfile> selected_profiles(double scale);

/// Returns the trace for a profile: per-process memo first, then the
/// persistent POD_TRACE_CACHE, then generation. Thread-safe — concurrent
/// callers of the same profile block on one generation instead of
/// duplicating it.
const Trace& trace_for(const WorkloadProfile& profile);

/// Warms the per-process memo for every profile, generating uncached
/// traces in parallel on bench_jobs() workers. Call once at bench startup
/// so per-figure loops hit only memoised traces.
void prefetch_traces(const std::vector<WorkloadProfile>& profiles);

/// The evaluation engine set of Figures 8-10 (no POD: the paper's §IV-B
/// compares the fixed-partition schemes first).
std::vector<EngineKind> figure8_engines();

/// Figure 11's engine set (adds POD).
std::vector<EngineKind> figure11_engines();

/// Builds the standard 4-disk RAID5 / 64 KB stripe run spec of §IV-B with
/// the paper's per-trace memory budget and options()' per-run settings.
RunSpec paper_spec(EngineKind engine, const WorkloadProfile& profile,
                   double scale);

/// Parallel job count from POD_JOBS (default and cap: hardware
/// concurrency). Per-run results are byte-identical to serial; only
/// wall-clock changes.
std::size_t bench_jobs();

/// Runs every engine over one trace, fanning runs across bench_jobs()
/// workers; results keyed by engine.
std::map<EngineKind, ReplayResult> run_engine_set(
    const std::vector<EngineKind>& engines, const WorkloadProfile& profile,
    double scale);

/// Appends one JSON line per run to POD_BENCH_JSON (no-op when unset).
void emit_replay_counters_json(
    const std::map<EngineKind, ReplayResult>& results);

/// Prints the per-engine latency-component breakdown and — when
/// POD_TAIL_ANATOMY is set — the tail-anatomy table (slowest requests with
/// their full decompositions). No-op when attribution was off.
void print_anatomy_tables(const std::string& trace_name,
                          const std::map<EngineKind, ReplayResult>& results);

/// Table formatting helpers.
void print_header(const std::string& title, const std::string& what);
void print_row(const std::string& label, const std::vector<double>& values,
               const char* unit);

}  // namespace pod::bench

// Trace replay: drives an engine with a Trace over the discrete-event
// simulator and collects per-class response times (paper §IV-A: traces are
// "replayed at the block level", evaluating "user response times").
#pragma once

#include <memory>
#include <optional>

#include "engines/engine.hpp"
#include "engines/pod_engine.hpp"
#include "engines/post_process.hpp"
#include "raid/volume.hpp"
#include "replay/anatomy.hpp"
#include "replay/metrics.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/request.hpp"

namespace pod {

/// How measured-phase arrivals enter the simulator.
enum class AdmissionMode {
  /// Arrivals are pulled from the trace one at a time, each submitted the
  /// moment simulated time reaches it: the event heap only ever holds
  /// in-flight simulation events (O(outstanding I/O)), not the whole trace.
  /// Event ordering — and therefore every result byte — is identical to
  /// kPrescheduled: an arrival is admitted iff its time is <= the earliest
  /// pending event, which reproduces exactly the (time, seq) order the
  /// prescheduled heap produces (all arrival events carry smaller sequence
  /// numbers than any event scheduled during the run, so at equal times
  /// arrivals fire first, in trace order).
  kStreaming,
  /// Legacy: schedule every measured request up front, then run. Heap depth
  /// equals the remaining trace size. Kept as the equivalence baseline.
  kPrescheduled,
};

/// Two-stage intra-replay pipeline (streaming admission only): a prepare
/// thread walks the measured suffix ahead of the DES — rebasing arrivals,
/// validating time order, and prefetching each write's fingerprint cache
/// lines out of the trace arena — and hands prepared batches to the DES
/// thread over a bounded SPSC ring. All stateful work (engine probes, cache
/// updates, the event loop) stays on the DES thread in admission order, so
/// every result byte is identical with the pipeline on or off.
struct PipelineConfig {
  bool enabled = false;
  /// Ring capacity in prepared batches.
  std::size_t depth = 8;
};

class Replayer {
 public:
  explicit Replayer(AdmissionMode mode = AdmissionMode::kStreaming,
                    const PipelineConfig& pipeline = {})
      : mode_(mode), pipeline_(pipeline) {}

  void set_pipeline(const PipelineConfig& p) { pipeline_ = p; }
  const PipelineConfig& pipeline() const { return pipeline_; }

  /// Replays `trace` against `engine`:
  ///  1. the warm-up prefix runs functionally (state only, no timing) —
  ///     the paper's "cache ... warmed up by the first 14 days";
  ///  2. the measured suffix runs on the simulator at original (rebased)
  ///     arrival times; response time = completion - arrival.
  ReplayResult replay(Simulator& sim, DedupEngine& engine, const Trace& trace);

 private:
  AdmissionMode mode_;
  PipelineConfig pipeline_;
};

/// Which engine to build for a run.
enum class EngineKind {
  kNative,
  kFullDedupe,
  kIDedup,
  kSelectDedupe,
  kPod,
  kIoDedup,
  kPostProcess,
};

const char* to_string(EngineKind kind);

enum class RaidLevel { kRaid0, kRaid5 };

/// Everything needed for one experiment run.
struct RunSpec {
  EngineKind engine = EngineKind::kNative;
  RaidLevel raid = RaidLevel::kRaid5;
  EngineConfig engine_cfg;
  ArrayConfig array_cfg;  // disk_geometry.total_blocks is sized automatically
  PodEngineOptions pod;
  PostProcessOptions post_process;
  /// Execution settings; none of them changes a result byte.
  PipelineConfig pipeline;
  TelemetryConfig telemetry;  // sinks off unless a path is set
  /// Per-request latency attribution; nullopt = off.
  std::optional<LatencyAnatomy::Config> anatomy;
};

/// Builds the volume for a spec (disk sizes derived from the engine's
/// required capacity).
std::unique_ptr<Volume> make_volume(Simulator& sim, const RunSpec& spec);

/// Builds the engine for a spec.
std::unique_ptr<DedupEngine> make_engine(Simulator& sim, Volume& volume,
                                         const RunSpec& spec);

/// One-stop: fresh simulator + volume + engine, replay, return results.
/// Telemetry and latency anatomy are attached per run as `spec` asks.
ReplayResult run_replay(const RunSpec& spec, const Trace& trace,
                        AdmissionMode mode = AdmissionMode::kStreaming);
/// As above, with `pipeline` in place of spec.pipeline.
ReplayResult run_replay(const RunSpec& spec, const Trace& trace,
                        AdmissionMode mode, const PipelineConfig& pipeline);

}  // namespace pod

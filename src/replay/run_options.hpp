// Run options: every POD_* environment knob, parsed in one place.
//
// Library code never reads the environment; it takes RunSpec and plain
// config structs. Program mains (the bench binaries and the shared test
// main) call RunOptions::parse_environment() once, before any work starts,
// then pass the result down: apply() copies the per-run settings into a
// RunSpec, and `simd` goes to cap_simd_tier().
//
// One rule covers every knob:
//   * an empty value means unset (the knob keeps its default);
//   * booleans accept exactly "0" or "1";
//   * a malformed or out-of-range value is rejected with the message
//     "[pod] NAME='value': want <form>"; programs print it and exit 2.
//
// knobs() is the single table of name, type, default and accepted form;
// README.md's knob table mirrors it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "hash/simd.hpp"
#include "replay/anatomy.hpp"
#include "replay/replayer.hpp"
#include "telemetry/telemetry.hpp"

namespace pod {

struct RunOptions {
  // ---- workload selection (bench programs) ----------------------------
  double scale = 0.25;             ///< POD_SCALE
  std::string trace;               ///< POD_TRACE; empty = every workload
  std::size_t jobs = 1;            ///< POD_JOBS, capped at hardware threads
  std::string trace_cache;         ///< POD_TRACE_CACHE; empty = no cache
  std::string bench_json;          ///< POD_BENCH_JSON; empty = no capture
  std::uint64_t cdc_sweep_mb = 24; ///< POD_CDC_SWEEP_MB

  // ---- execution path: never changes a result byte -------------------
  std::optional<SimdTier> simd;    ///< POD_SIMD; unset = hardware maximum
  bool scalar_probes = false;      ///< POD_SCALAR_PROBES
  bool fused_probes = true;        ///< POD_FUSED_PROBES
  PipelineConfig pipeline;         ///< POD_PIPELINE

  // ---- per-run configuration ------------------------------------------
  FaultConfig fault;               ///< POD_FAULT_*
  TelemetryConfig telemetry;       ///< POD_TRACE_EVENTS, POD_TELEMETRY_*, POD_TRACE_LIMIT
  bool anatomy = false;            ///< POD_ANATOMY
  std::optional<std::size_t> tail_anatomy;  ///< POD_TAIL_ANATOMY (implies POD_ANATOMY)
  bool anatomy_buckets = false;    ///< POD_ANATOMY_BUCKETS

  /// One row of the knob table. `set` returns false when `value` is
  /// malformed or out of range.
  struct Knob {
    const char* name;
    const char* type;
    const char* default_value;
    const char* form;
    bool (*set)(RunOptions& opts, std::string_view value);
  };
  static std::span<const Knob> knobs();

  /// Null when the variable is unset.
  using Lookup = std::function<const char*(const char* name)>;

  /// Program defaults (jobs = hardware threads, pipeline on iff there are
  /// at least two), then every knob of the table through `lookup`. Throws
  /// std::invalid_argument carrying "[pod] NAME='value': want <form>" for
  /// the first knob that breaks the rule.
  static RunOptions parse(const Lookup& lookup);
  /// parse() over the process environment.
  static RunOptions parse_environment();

  /// The latency-anatomy collector setting, or nullopt when it is off.
  std::optional<LatencyAnatomy::Config> anatomy_config() const;

  /// Copies the per-run settings (probe modes, pipeline, faults,
  /// telemetry, anatomy) into `spec`.
  void apply(RunSpec& spec) const;
};

}  // namespace pod

#include "telemetry/telemetry.hpp"

#include <atomic>

#include "common/logging.hpp"

namespace pod {

namespace {

/// Process-wide run sequence: parallel runs each claim a distinct file
/// suffix.
std::atomic<std::uint64_t> g_run_seq{0};

}  // namespace

std::string telemetry_run_path(const std::string& base, std::uint64_t seq,
                               const std::string& label) {
  std::string clean;
  clean.reserve(label.size());
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    clean.push_back(ok ? c : '-');
  }
  const std::string infix = "." + std::to_string(seq) + "-" + clean;
  // Insert before the extension; paths like "dir/name" (no dot after the
  // last separator) just get the infix appended.
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + infix;
  return base.substr(0, dot) + infix + base.substr(dot);
}

namespace {

/// Warn-once gate for sink-open failures: the writers warn per file, which
/// under ParallelRunner repeats for every run. The facade adds one summary
/// line per process and counts the rest silently
/// (telemetry.sink_open_failures in the metrics snapshot).
void warn_sink_open_failure_once(const char* what) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    POD_LOG_WARN(
        "telemetry: %s sink failed to open; its output for this and any "
        "later run is missing (per-run counts in "
        "telemetry.sink_open_failures; further failures not re-reported)",
        what);
  }
}

}  // namespace

Telemetry::Telemetry(const TelemetryConfig& cfg, const std::string& run_label)
    : run_label_(run_label) {
  const std::uint64_t seq = g_run_seq.fetch_add(1, std::memory_order_relaxed);
  if (!cfg.trace_events_path.empty()) {
    trace_ = std::make_unique<TraceEventWriter>(
        telemetry_run_path(cfg.trace_events_path, seq, run_label),
        cfg.trace_event_limit);
    if (!trace_->ok()) {
      trace_.reset();
      warn_sink_open_failure_once("trace-event");
      metrics_.counter("telemetry.sink_open_failures").inc();
    }
  }
  if (!cfg.timeseries_path.empty()) {
    sampler_ = std::make_unique<TimeSeriesSampler>(
        telemetry_run_path(cfg.timeseries_path, seq, run_label),
        cfg.sample_interval);
    if (!sampler_->ok()) {
      sampler_.reset();
      warn_sink_open_failure_once("time-series");
      metrics_.counter("telemetry.sink_open_failures").inc();
    }
  }
  if (trace_) {
    const std::string req_lane = "requests (" + run_label + ")";
    trace_->set_process_name(kTracePidRequests, req_lane.c_str());
    trace_->set_process_name(kTracePidDisks, "disks");
  }
}

Telemetry::~Telemetry() = default;

void Telemetry::finish(SimTime now) {
  if (sampler_) {
    sampler_->sample_now(now);
    sampler_->close();
  }
  if (trace_) {
    // Export the writer's tallies before closing so the snapshot taken
    // after finish() (run_replay -> ReplayResult::telemetry_counters, and
    // from there POD_BENCH_JSON) records whether the event cap truncated
    // the trace.
    metrics_.counter("trace.events_written").inc(trace_->events_written());
    metrics_.counter("trace.events_dropped").inc(trace_->events_dropped());
    trace_->close();
  }
}

}  // namespace pod

#include "replay/run_options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>

namespace pod {

namespace {

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool parse_bool(std::string_view v, bool& out) {
  if (v != "0" && v != "1") return false;
  out = v == "1";
  return true;
}

/// Whole-string unsigned integer in [lo, hi]: no sign, no whitespace, no
/// trailing bytes.
template <typename T>
bool parse_uint(std::string_view v, T lo, T hi, T& out) {
  T x{};
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc{} || ptr != v.data() + v.size() || x < lo || x > hi)
    return false;
  out = x;
  return true;
}

/// Whole-string finite decimal in [lo, hi], or (lo, hi] when `lo_open`.
bool parse_real(std::string_view v, double lo, double hi, bool lo_open,
                double& out) {
  double x = 0.0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc{} || ptr != v.data() + v.size() || !std::isfinite(x) ||
      x < lo || (lo_open && x == lo) || x > hi)
    return false;
  out = x;
  return true;
}

bool set_path(std::string& field, std::string_view v) {
  field.assign(v);
  return true;
}

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
/// Simulated-time knobs stay far inside Duration's int64 nanoseconds.
constexpr double kMaxMs = 1e9;

using O = RunOptions;

constexpr RunOptions::Knob kKnobs[] = {
    // Workload selection.
    {"POD_SCALE", "real", "0.25", "a number in (0, 1]",
     [](O& o, std::string_view v) { return parse_real(v, 0.0, 1.0, true, o.scale); }},
    {"POD_TRACE", "enum", "every workload", "web-vm | homes | mail",
     [](O& o, std::string_view v) {
       if (v != "web-vm" && v != "homes" && v != "mail") return false;
       o.trace.assign(v);
       return true;
     }},
    {"POD_JOBS", "integer", "hardware threads",
     "an integer >= 1 (capped at hardware threads)",
     [](O& o, std::string_view v) {
       std::size_t jobs = 0;
       if (!parse_uint<std::size_t>(v, 1, SIZE_MAX, jobs)) return false;
       o.jobs = std::min<std::size_t>(jobs, hardware_threads());
       return true;
     }},
    {"POD_TRACE_CACHE", "path", "off", "a directory path",
     [](O& o, std::string_view v) { return set_path(o.trace_cache, v); }},
    {"POD_BENCH_JSON", "path", "off", "a file path",
     [](O& o, std::string_view v) { return set_path(o.bench_json, v); }},
    {"POD_CDC_SWEEP_MB", "integer", "24", "an integer in [1, 65536]",
     [](O& o, std::string_view v) {
       return parse_uint<std::uint64_t>(v, 1, 65536, o.cdc_sweep_mb);
     }},

    // Execution path.
    {"POD_SIMD", "enum", "hardware maximum", "scalar | avx2",
     [](O& o, std::string_view v) {
       if (v == "scalar") o.simd = SimdTier::kScalar;
       else if (v == "avx2") o.simd = SimdTier::kAvx2;
       else return false;
       return true;
     }},
    {"POD_SCALAR_PROBES", "bool", "0", "0 | 1",
     [](O& o, std::string_view v) { return parse_bool(v, o.scalar_probes); }},
    {"POD_FUSED_PROBES", "bool", "1", "0 | 1",
     [](O& o, std::string_view v) { return parse_bool(v, o.fused_probes); }},
    {"POD_PIPELINE", "bool", "1 with >= 2 hardware threads, else 0", "0 | 1",
     [](O& o, std::string_view v) { return parse_bool(v, o.pipeline.enabled); }},

    // Fault injection: any fault knob turns the injector on.
    {"POD_FAULT_SEED", "integer", "0xF40117", "an unsigned 64-bit integer",
     [](O& o, std::string_view v) {
       o.fault.enabled = true;
       return parse_uint<std::uint64_t>(v, 0, kU64Max, o.fault.seed);
     }},
    {"POD_FAULT_MEDIA_RATE", "real", "0", "a probability in [0, 1]",
     [](O& o, std::string_view v) {
       o.fault.enabled = true;
       return parse_real(v, 0.0, 1.0, false, o.fault.media_error_rate);
     }},
    {"POD_FAULT_TRANSIENT_RATE", "real", "0", "a probability in [0, 1]",
     [](O& o, std::string_view v) {
       o.fault.enabled = true;
       return parse_real(v, 0.0, 1.0, false, o.fault.transient_rate);
     }},
    {"POD_FAULT_FAIL_DISK", "integer", "none", "a disk index >= 0",
     [](O& o, std::string_view v) {
       o.fault.enabled = true;
       if (!parse_uint<std::size_t>(v, 0, SIZE_MAX, o.fault.fail_disk))
         return false;
       if (o.fault.fail_at < 0) o.fault.fail_at = 0;
       return true;
     }},
    {"POD_FAULT_FAIL_AT_MS", "real", "0 with POD_FAULT_FAIL_DISK",
     "milliseconds in [0, 1e9]",
     [](O& o, std::string_view v) {
       o.fault.enabled = true;
       double at = 0.0;
       if (!parse_real(v, 0.0, kMaxMs, false, at)) return false;
       o.fault.fail_at = ms(at);
       return true;
     }},
    {"POD_FAULT_REBUILD", "bool", "1", "0 | 1",
     [](O& o, std::string_view v) {
       o.fault.enabled = true;
       return parse_bool(v, o.fault.auto_rebuild);
     }},

    // Telemetry sinks.
    {"POD_TRACE_EVENTS", "path", "off", "a file path",
     [](O& o, std::string_view v) {
       return set_path(o.telemetry.trace_events_path, v);
     }},
    {"POD_TELEMETRY_CSV", "path", "off", "a file path",
     [](O& o, std::string_view v) {
       return set_path(o.telemetry.timeseries_path, v);
     }},
    {"POD_TELEMETRY_INTERVAL_MS", "real", "100", "milliseconds in (0, 1e9]",
     [](O& o, std::string_view v) {
       double interval = 0.0;
       if (!parse_real(v, 0.0, kMaxMs, true, interval)) return false;
       o.telemetry.sample_interval = ms(interval);
       return true;
     }},
    {"POD_TRACE_LIMIT", "integer", "500000", "an unsigned 64-bit integer (0 = unlimited)",
     [](O& o, std::string_view v) {
       return parse_uint<std::uint64_t>(v, 0, kU64Max,
                                        o.telemetry.trace_event_limit);
     }},

    // Latency anatomy.
    {"POD_ANATOMY", "bool", "0", "0 | 1",
     [](O& o, std::string_view v) { return parse_bool(v, o.anatomy); }},
    {"POD_TAIL_ANATOMY", "integer", "off (64 with POD_ANATOMY=1)",
     "an integer in [0, 1048576]",
     [](O& o, std::string_view v) {
       std::size_t k = 0;
       if (!parse_uint<std::size_t>(v, 0, 1 << 20, k)) return false;
       o.tail_anatomy = k;
       return true;
     }},
    {"POD_ANATOMY_BUCKETS", "bool", "0", "0 | 1",
     [](O& o, std::string_view v) { return parse_bool(v, o.anatomy_buckets); }},
};

}  // namespace

std::span<const RunOptions::Knob> RunOptions::knobs() { return kKnobs; }

RunOptions RunOptions::parse(const Lookup& lookup) {
  RunOptions opts;
  opts.jobs = hardware_threads();
  // The prepare stage needs a second hardware thread; on one core the
  // pipeline only adds context switches.
  opts.pipeline.enabled = hardware_threads() >= 2;
  for (const Knob& knob : kKnobs) {
    const char* value = lookup(knob.name);
    if (value == nullptr || *value == '\0') continue;
    if (!knob.set(opts, value))
      throw std::invalid_argument(std::string("[pod] ") + knob.name + "='" +
                                  value + "': want " + knob.form);
  }
  return opts;
}

RunOptions RunOptions::parse_environment() {
  return parse([](const char* name) { return std::getenv(name); });
}

std::optional<LatencyAnatomy::Config> RunOptions::anatomy_config() const {
  if (!anatomy && !tail_anatomy) return std::nullopt;
  LatencyAnatomy::Config cfg;
  if (tail_anatomy) cfg.tail_k = *tail_anatomy;
  cfg.bucketed = anatomy_buckets;
  return cfg;
}

void RunOptions::apply(RunSpec& spec) const {
  spec.engine_cfg.scalar_probes = scalar_probes;
  spec.engine_cfg.fused_probes = fused_probes;
  spec.pipeline = pipeline;
  spec.array_cfg.fault = fault;
  spec.telemetry = telemetry;
  spec.anatomy = anatomy_config();
}

}  // namespace pod

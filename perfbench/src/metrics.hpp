// Turns repetitions into the benchmark's named metrics and prints them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "span_trace.hpp"

namespace podbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value: repetitions for host timings, simulated
  /// requests for simulated latency percentiles, 1 for end-of-run counts.
  std::size_t samples = 1;
  /// Quartiles over repetitions (equal to value when samples == 1).
  double q1 = 0;
  double q3 = 0;
};

using Report = std::vector<Metric>;

/// Median of `v` (v non-empty).
double median(std::vector<double> v);
/// First and third quartiles, as Python's statistics.quantiles(v, n=4).
std::pair<double, double> quartiles(std::vector<double> v);

/// The reference kernel time that end-to-end host timings are scaled to:
/// about the median of reference_kernel_s() on the 4-vCPU Sapphire Rapids
/// VM the benchmark was tuned on (0.14-0.18 s over ten runs there).
inline constexpr double kReferenceNominalS = 0.15;

/// End-to-end metrics over untraced repetitions (all of one seed). setup_s,
/// replay_s and cpu_s are wall or CPU seconds scaled by
/// kReferenceNominalS / (median reference_s of the run), so that a change
/// in how fast the shared host runs moves them less than a change in the
/// program does.
Report end_to_end_report(const std::vector<HostRep>& host,
                         const SimOutcome& sim, double peak_rss_mb);

/// Per-layer metrics: host CPU splits from untraced repetitions, span
/// timings from every traced repetition, counts from the last untraced
/// result and the last traced repetition.
Report layer_report(const std::vector<HostRep>& host,
                    const pod::ReplayResult& result,
                    const std::vector<LayerTimes>& traced_times,
                    const TracedRep& last);

/// Calls, total and self time per layer of one traced replay, with each
/// self time's share of the replay's wall time (build + warm-up + measured).
void print_layer_table(const LayerTimes& times);

/// One line per metric: name, value, unit, sample count and quartiles.
void print_report(const Report& report);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result_line(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Report& report);

}  // namespace podbench

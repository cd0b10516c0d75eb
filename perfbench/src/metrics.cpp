#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace podbench {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) return {v.front(), v.front()};
  // statistics.quantiles(..., n=4, method='exclusive').
  auto q = [&](long i) {
    const long m = ld + 1;
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) / 4;
  };
  return {q(1), q(3)};
}

namespace {

/// A metric taken over repetitions: median plus quartiles.
Metric over_reps(std::string name, std::string unit, std::vector<double> v) {
  const auto [q1, q3] = quartiles(v);
  return {std::move(name), median(v), std::move(unit), v.size(), q1, q3};
}

Metric single(std::string name, std::string unit, double value,
              std::size_t samples = 1) {
  return {std::move(name), value, std::move(unit), samples, value, value};
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

const LayerTime& at(const LayerTimes& t, Layer l) {
  return t[static_cast<std::size_t>(l)];
}

/// Host wall time of one traced replay: build + warm-up + measured loop,
/// the same work one untraced run_replay times.
double traced_replay_s(const LayerTimes& t) {
  return ns_to_s(at(t, Layer::kReplayBuild).total_ns +
                 at(t, Layer::kReplayWarm).total_ns +
                 at(t, Layer::kReplayMeasured).total_ns);
}

}  // namespace

Report end_to_end_report(const std::vector<HostRep>& host,
                         const SimOutcome& sim, double peak_rss_mb) {
  std::vector<double> reference;
  for (const HostRep& r : host) reference.push_back(r.reference_s);
  const double scale = kReferenceNominalS / median(reference);
  std::vector<double> setup, replay, cpu;
  for (const HostRep& r : host) {
    setup.push_back(scale * (r.generate_s + r.build_s));
    replay.push_back(scale * r.replay_s);
    cpu.push_back(scale * r.cpu_s);
  }
  const auto ms = [](double ns) { return ns / 1e6; };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      over_reps("setup_s", "s", setup),
      over_reps("replay_s", "s", replay),
      over_reps("cpu_s", "s", cpu),
      single("peak_rss_mb", "MB", peak_rss_mb, host.size()),
      single("sim_read_mean_ms", "ms", ms(ratio(sim.read_sum_ns, n(sim.reads))),
             sim.reads),
      single("sim_read_p99_ms", "ms", ms(sim.read_p99_ns), sim.reads),
      single("sim_write_mean_ms", "ms",
             ms(ratio(sim.write_sum_ns, n(sim.writes))), sim.writes),
      single("sim_write_p99_ms", "ms", ms(sim.write_p99_ns), sim.writes),
      single("stored_per_written", "ratio", sim.stored_per_written(),
             sim.chunks_written + sim.chunks_deduped),
  };
}

Report layer_report(const std::vector<HostRep>& host,
                    const pod::ReplayResult& r,
                    const std::vector<LayerTimes>& traced_times,
                    const TracedRep& last) {
  std::vector<double> offthread, faults, untraced_replay, reference;
  for (const HostRep& h : host) {
    reference.push_back(h.reference_s);
    offthread.push_back(h.cpu_s - h.replay_thread_cpu_s);
    faults.push_back(static_cast<double>(h.minor_faults));
    untraced_replay.push_back(h.replay_s);
  }
  std::vector<double> warm, measured, generate, warm_ns, submit_ns, raid_ns,
      step_ns, traced_replay, loop_pct;
  for (const LayerTimes& t : traced_times) {
    const auto per_call = [&t](Layer l, double calls) {
      return static_cast<double>(at(t, l).self_ns) / std::max(calls, 1.0);
    };
    warm.push_back(ns_to_s(at(t, Layer::kReplayWarm).total_ns));
    measured.push_back(ns_to_s(at(t, Layer::kReplayMeasured).total_ns));
    generate.push_back(ns_to_s(at(t, Layer::kSynthGenerate).total_ns));
    warm_ns.push_back(per_call(
        Layer::kEnginesWarm,
        static_cast<double>(at(t, Layer::kEnginesWarm).calls)));
    submit_ns.push_back(per_call(
        Layer::kEnginesSubmit,
        static_cast<double>(at(t, Layer::kEnginesSubmit).calls)));
    raid_ns.push_back(per_call(
        Layer::kRaidSubmit,
        static_cast<double>(at(t, Layer::kRaidSubmit).calls)));
    step_ns.push_back(per_call(Layer::kSimStep,
                               static_cast<double>(last.events)));
    traced_replay.push_back(traced_replay_s(t));
    loop_pct.push_back(
        100.0 *
        ns_to_s(at(t, Layer::kReplayWarm).self_ns +
                at(t, Layer::kReplayMeasured).self_ns) /
        traced_replay_s(t));
  }

  const pod::EngineStats& m = r.measured;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  double busy_ms = 0, seek = 0;
  for (const auto& d : r.per_disk) {
    busy_ms += d.busy_ms;
    seek += d.mean_seek_cylinders;
  }
  seek = ratio(seek, n(r.per_disk.size()));
  const std::uint64_t index_lookups = last.index_hits + last.index_misses;

  return {
      over_reps("replay.warm_s", "s", warm),
      over_reps("replay.measured_s", "s", measured),
      over_reps("replay.offthread_cpu_s", "s", offthread),
      over_reps("replay.minor_faults", "count", faults),
      over_reps("synth.generate_s", "s", generate),
      single("synth.requests", "count", n(last.shape.requests)),
      over_reps("engines.warm_ns_per_req", "ns", warm_ns),
      over_reps("engines.submit_self_ns_per_req", "ns", submit_ns),
      single("engines.writes_eliminated_pct", "%", m.removed_write_pct()),
      single("engines.read_ops_per_read", "ratio",
             ratio(n(m.read_ops_issued), n(m.read_requests))),
      single("engines.category2_share", "ratio",
             ratio(n(m.category_counts[2]), n(m.write_requests))),
      single("cache.index_lookups", "count", n(index_lookups)),
      single("cache.index_hit_rate", "ratio",
             ratio(n(last.index_hits), n(index_lookups))),
      single("cache.index_ghost_hits", "count", n(last.index_ghost_hits)),
      single("cache.read_hit_rate", "ratio",
             ratio(n(last.read_hits), n(last.read_hits + last.read_misses))),
      single("cache.index_bytes", "bytes", n(r.index_cache_bytes)),
      single("cache.read_bytes", "bytes", n(r.read_cache_bytes)),
      single("dedup.chunks_deduped", "count", n(m.chunks_deduped)),
      single("dedup.chunks_written", "count", n(m.chunks_written)),
      single("dedup.index_disk_reads", "count", n(m.index_disk_reads)),
      single("dedup.map_table_bytes", "bytes", n(r.map_table_bytes)),
      single("dedup.physical_blocks_used", "count", n(r.physical_blocks_used)),
      single("icache.adaptations", "count", n(r.icache.adaptations)),
      single("icache.final_index_fraction", "ratio", r.final_index_fraction),
      single("icache.swap_blocks", "count",
             n(r.icache.swap_blocks_read + r.icache.swap_blocks_written)),
      single("hash.chunks_hashed", "count", n(r.chunks_hashed)),
      single("raid.submit_calls", "count",
             n(at(traced_times.back(), Layer::kRaidSubmit).calls)),
      over_reps("raid.submit_self_ns_per_call", "ns", raid_ns),
      single("raid.rmw_writes", "count", n(r.volume_counters.rmw_writes)),
      single("raid.full_stripe_writes", "count",
             n(r.volume_counters.full_stripe_writes)),
      single("disk.ops", "count", n(r.disk_reads + r.disk_writes)),
      single("disk.busy_ms", "ms", busy_ms),
      single("disk.mean_queue_depth", "ops", r.mean_disk_queue_depth),
      single("disk.mean_seek_cylinders", "cylinders", seek),
      single("sim.events", "count", n(r.events_scheduled)),
      over_reps("sim.step_self_ns_per_event", "ns", step_ns),
      single("sim.peak_event_depth", "count", n(r.peak_event_depth)),
      single("bench.trace_overhead_pct", "%",
             100.0 * (median(traced_replay) / median(untraced_replay) - 1.0),
             traced_replay.size()),
      over_reps("bench.loop_self_pct", "%", loop_pct),
      over_reps("bench.reference_s", "s", reference),
  };
}

void print_layer_table(const LayerTimes& times) {
  const double wall = traced_replay_s(times);
  std::printf("# %-16s %10s %10s %10s %8s\n", "span", "calls", "total_s",
              "self_s", "self_%");
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    const LayerTime& t = times[l];
    std::printf("# %-16s %10llu %10.4f %10.4f", to_string(static_cast<Layer>(l)),
                static_cast<unsigned long long>(t.calls), ns_to_s(t.total_ns),
                ns_to_s(t.self_ns));
    // Trace generation happens before the replay, outside its wall time.
    if (static_cast<Layer>(l) == Layer::kSynthGenerate)
      std::printf(" %8s\n", "-");
    else
      std::printf(" %8.2f\n", 100.0 * ns_to_s(t.self_ns) / wall);
  }
}

void print_report(const Report& report) {
  for (const Metric& m : report) {
    if (m.samples > 1 && m.q1 != m.q3)
      std::printf("%-32s %14.6g %-9s (median of %zu; quartiles %.6g .. %.6g)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples, m.q1,
                  m.q3);
    else
      std::printf("%-32s %14.6g %-9s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
  }
}

void print_result_line(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Report& report) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, report[i].value);
    line += (i ? ", \"" : "\"") + report[i].name + "\": {\"value\": " +
            std::string(buf, res.ptr) + ", \"unit\": \"" + report[i].unit +
            "\"}";
  }
  line += "}}";
  std::puts(line.c_str());
  std::fflush(stdout);
}

}  // namespace podbench

// podbench: the repository benchmark (see perfbench/README.md).
//
//   podbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 repeats untraced run_replay calls for S seconds and prints the
// end-to-end metrics. --trace 1 alternates untraced and traced replays and
// prints the per-layer metrics. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any output check fails.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "hash/simd.hpp"
#include "metrics.hpp"

extern char** environ;

namespace podbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "podbench: %s\nusage: podbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fputc('\n', stderr);
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || ptr == text)
    usage(("malformed value for " + flag + ": '" + text + "'").c_str());
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, val);
      a.seed_set = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, val);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const std::string v = val;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// The library reads POD_* variables in many places (probe mode, pipeline,
/// SIMD tier, faults, telemetry). A benchmark run must not depend on them.
bool pod_env_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "POD_", 4) == 0) {
      std::fprintf(stderr, "podbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

/// The resolved execution path, so two outputs can be matched to the same
/// program and host.
void print_resolved(const Workload& w, std::uint64_t seed,
                    const pod::WorkloadProfile& profile) {
  const pod::PipelineConfig pipe = bench_pipeline();
  std::printf(
      "# resolved {\"workload\":\"%s\",\"engine\":\"%s\",\"profile\":\"%s\","
      "\"scale\":%g,\"seed\":%llu,\"warmup_requests\":%llu,"
      "\"measured_requests\":%llu,\"hw_threads\":%u,\"simd_tier\":\"%s\","
      "\"pipeline\":%s,\"pipeline_depth\":%zu,\"probe_mode\":\"fused\","
      "\"build_type\":\"%s\",\"compiler\":\"%s\"}\n",
      w.name.c_str(), pod::to_string(w.engine), w.profile.c_str(), w.scale,
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(profile.warmup_requests),
      static_cast<unsigned long long>(profile.measured_requests),
      std::thread::hardware_concurrency(),
      pod::to_string(pod::active_simd_tier()), pipe.enabled ? "true" : "false",
      pipe.depth, PODBENCH_BUILD_TYPE, __VERSION__);
}

class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "podbench: CHECK FAILED: %s\n", what.c_str());
    ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

void check_shape(Checker& c, const TraceShape& s, const TraceShape& first,
                 const SimOutcome& o, const char* who) {
  const std::string tag = std::string(who) + ": ";
  c.expect(s.checksum == first.checksum && s.requests == first.requests,
           tag + "same seed generated a different trace");
  c.expect(o.reads == s.measured_reads,
           tag + "measured read count differs from the trace's");
  c.expect(o.writes == s.measured_writes,
           tag + "measured write count differs from the trace's");
  c.expect(o.failed == 0, tag + "failed requests with faults off");
}

/// Process peak resident set so far, in MB (10^6 bytes).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());
  if (!pod_env_clean()) return 2;
  const std::uint64_t seed = args.seed_set ? args.seed : default_seed(*w);
  const pod::WorkloadProfile profile = make_profile(*w, seed);
  print_resolved(*w, seed, profile);

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // One untimed warm-up repetition, then at least three untraced samples
  // (two of each kind in a traced run) and as many as fit in the run time.
  const std::size_t min_untraced = args.trace ? 2 : 3;
  const std::size_t min_traced = args.trace ? 2 : 0;

  Checker check;
  std::vector<HostRep> host;
  pod::ReplayResult last_result;
  std::vector<LayerTimes> traced_times;
  std::optional<TracedRep> last_traced;
  SimOutcome ref;
  TraceShape ref_shape;
  double rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool warmed_up = false;

  while (host.size() < min_untraced || traced_times.size() < min_traced ||
         Clock::now() < deadline) {
    HostRep rep = run_untraced(*w, profile);
    const SimOutcome o = outcome_of(rep.result);
    if (!warmed_up) {
      ref = o;
      ref_shape = rep.shape;
    }
    check_shape(check, rep.shape, ref_shape, o, "run_replay");
    check.expect(o == ref, "run_replay: simulated results differ between "
                           "repetitions of one seed");
    attempted += o.reads + o.writes;
    failed += o.failed;
    // Keep one full result: retaining every repetition's latency samples
    // would grow the peak RSS with the repetition count.
    last_result = std::move(rep.result);
    rep.result = pod::ReplayResult{};
    // The first repetition pays the process's first touch of every page
    // the replay uses; it is checked but not timed.
    if (!warmed_up) {
      warmed_up = true;
      continue;
    }
    host.push_back(std::move(rep));
    if (!args.trace) {
      rss_mb = peak_rss_mb();
      continue;
    }

    last_traced.reset();  // one span list in memory at a time
    last_traced = run_traced(*w, profile);
    const TracedRep& tr = *last_traced;
    const SimOutcome to = outcome_of(tr.reads, tr.writes, tr.measured, tr.events);
    check_shape(check, tr.shape, ref_shape, to, "traced replay");
    check.expect(to == ref, "traced replay: simulated results differ from "
                            "run_replay's");
    check.expect(tr.spans.all_closed(), "traced replay: unclosed span");
    const LayerTimes lt = layer_times(tr.spans.spans());
    check.expect(lt[static_cast<std::size_t>(Layer::kSimStep)].calls ==
                     tr.events + 1,
                 "traced replay: sim.step spans do not cover every event");
    attempted += to.reads + to.writes;
    failed += to.failed;
    traced_times.push_back(lt);
  }

  Report report;
  if (args.trace) {
    const TracedRep& last = *last_traced;
    report = layer_report(host, last_result, traced_times, last);
    print_layer_table(traced_times.back());
    const std::string dir = ".bench_out";
    const std::string path =
        dir + "/spans-" + w->name + "-seed" + std::to_string(seed) + ".bin";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (write_spans(path, last.spans.spans()))
      std::printf("# spans %s (%zu records)\n", path.c_str(),
                  last.spans.spans().size());
    else
      std::fprintf(stderr, "podbench: could not write %s\n", path.c_str());
  } else {
    report = end_to_end_report(host, ref, rss_mb);
    std::vector<double> reference, setup, cpu;
    std::printf("# unscaled replay wall s samples:");
    for (const HostRep& r : host) {
      std::printf(" %.4f", r.replay_s);
      reference.push_back(r.reference_s);
      setup.push_back(r.generate_s + r.build_s);
      cpu.push_back(r.cpu_s);
    }
    std::printf("\n# unscaled medians: setup %.4f s, cpu %.4f s; reference "
                "kernel %.4f s (nominal %.3f s)\n",
                median(setup), median(cpu), median(reference),
                kReferenceNominalS);
    std::printf("# simulated latency ms: read p50 %.6g p99.9 %.6g (n=%llu), "
                "write p50 %.6g p99.9 %.6g (n=%llu)\n",
                ref.read_p50_ns / 1e6, ref.read_p999_ns / 1e6,
                static_cast<unsigned long long>(ref.reads),
                ref.write_p50_ns / 1e6, ref.write_p999_ns / 1e6,
                static_cast<unsigned long long>(ref.writes));
  }
  print_report(report);
  print_result_line(check.ok(), attempted, failed, report);
  return check.ok() ? 0 : 1;
}

}  // namespace
}  // namespace podbench

int main(int argc, char** argv) {
  try {
    return podbench::run(podbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "podbench: %s\n", e.what());
    return 1;
  }
}

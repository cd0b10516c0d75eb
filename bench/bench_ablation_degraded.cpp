// Ablation: degraded-mode RAID5 — how write elimination pays off when the
// array has lost a disk and every reconstruction read occupies all
// surviving spindles.
#include <cstdio>

#include "raid/raid5.hpp"
#include "util/bench_util.hpp"

int main() {
  using namespace pod;
  using namespace pod::bench;

  const double scale = scale_from_env();
  print_header("Ablation — degraded-mode RAID5 (web-vm trace)",
               "one failed member; reconstruction reads fan out across "
               "survivors; scale=" + std::to_string(scale));

  const WorkloadProfile profile = web_vm_profile(scale);
  const Trace& trace = trace_for(profile);

  std::printf("%-10s %-14s %16s %16s %16s %14s\n", "Mode", "Engine",
              "Overall (ms)", "Write (ms)", "Read (ms)", "vs native");
  for (bool degraded : {false, true}) {
    double native = 0.0;
    for (EngineKind k :
         {EngineKind::kNative, EngineKind::kSelectDedupe, EngineKind::kPod}) {
      RunSpec spec = paper_spec(k, profile, scale);
      Simulator sim;
      auto volume = make_volume(sim, spec);
      if (degraded) static_cast<Raid5&>(*volume).fail_disk(1);
      auto engine = make_engine(sim, *volume, spec);
      Replayer replayer(AdmissionMode::kStreaming, spec.pipeline);
      const ReplayResult r = replayer.replay(sim, *engine, trace);
      if (k == EngineKind::kNative) native = r.mean_ms();
      std::printf("%-10s %-14s %16.2f %16.2f %16.2f %13.1f%%\n",
                  degraded ? "degraded" : "healthy", to_string(k), r.mean_ms(),
                  r.write_mean_ms(), r.read_mean_ms(),
                  normalized_pct(r.mean_ms(), native));
    }
  }
  std::printf("\nexpected: reads slow down (reconstruction fans out across "
              "all survivors) while writes can even speed up on rows whose "
              "parity column is the lost one (no parity maintenance). The "
              "engine ordering — select/pod well below native — must "
              "survive degraded operation.\n");
  return 0;
}

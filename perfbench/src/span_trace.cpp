#include "span_trace.hpp"

#include <cstdio>
#include <cstring>

namespace podbench {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kSynthGenerate: return "synth.generate";
    case Layer::kReplayBuild: return "replay.build";
    case Layer::kReplayWarm: return "replay.warm";
    case Layer::kReplayMeasured: return "replay.measured";
    case Layer::kEnginesWarm: return "engines.warm";
    case Layer::kEnginesSubmit: return "engines.submit";
    case Layer::kSimStep: return "sim.step";
    case Layer::kRaidSubmit: return "raid.submit";
    case Layer::kCount: break;
  }
  return "?";
}

LayerTimes layer_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  LayerTimes out{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTime& t = out[static_cast<std::size_t>(s.layer)];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "PODBENCH-SPANS v1 records=%zu layers=", spans.size());
  for (std::size_t l = 0; l < kNumLayers; ++l)
    std::fprintf(f, "%s%s", l ? "," : "", to_string(static_cast<Layer>(l)));
  std::fputc('\n', f);
  // start_ns i64, end_ns i64, request u64, parent u32, layer u8, 3 pad bytes.
  unsigned char rec[32];
  bool ok = true;
  for (const Span& s : spans) {
    std::memset(rec, 0, sizeof rec);
    std::memcpy(rec, &s.start_ns, 8);
    std::memcpy(rec + 8, &s.end_ns, 8);
    std::memcpy(rec + 16, &s.request, 8);
    std::memcpy(rec + 24, &s.parent, 4);
    rec[28] = static_cast<unsigned char>(s.layer);
    ok = ok && std::fwrite(rec, sizeof rec, 1, f) == 1;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace podbench

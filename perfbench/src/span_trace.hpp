// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times its own calls into each layer's public functions
// (the library carries no spans of its own). A span is one such call: the
// layer it entered, host start/end on the steady clock, the span that was
// open when it began (its parent), and the trace request id it serves.
// Spans are appended to a vector while the run executes and summarised or
// written out only after it ends, so recording costs two clock reads and
// one push per call.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace podbench {

/// The layer boundaries the traced replay records (span names).
enum class Layer : std::uint8_t {
  kSynthGenerate,   // TraceGenerator::generate
  kReplayBuild,     // make_volume + make_engine
  kReplayWarm,      // the benchmark's warm-up loop
  kReplayMeasured,  // the benchmark's measured (admission + event) loop
  kEnginesWarm,     // DedupEngine::warm
  kEnginesSubmit,   // DedupEngine::submit
  kSimStep,         // Simulator::step
  kRaidSubmit,      // Volume::submit (through TracingVolume)
  kCount,
};

inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

const char* to_string(Layer layer);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Trace request id (IoRequest::id + 1); 0 when the span serves none.
  std::uint64_t request = 0;
  /// Index of the enclosing span, or kNoParent.
  std::uint32_t parent = 0;
  Layer layer = Layer::kCount;
};

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

class SpanTrace {
 public:
  /// Opens a span under the innermost open one. A zero `request` inherits
  /// the parent's, so nested volume calls carry the id of the request whose
  /// submit made them.
  std::uint32_t begin(Layer layer, std::uint64_t request = 0) {
    const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
    if (request == 0 && parent != kNoParent) request = spans_[parent].request;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, request, parent, layer});
    open_.push_back(id);
    return id;
  }

  /// Closes the innermost open span (spans nest strictly).
  void end() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  /// RAII form of begin/end.
  class Scope {
   public:
    Scope(SpanTrace& t, Layer layer, std::uint64_t request = 0) : t_(t) {
      t_.begin(layer, request);
    }
    ~Scope() { t_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace& t_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }
  bool all_closed() const { return open_.empty(); }
  void reserve(std::size_t n) { spans_.reserve(n); }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Per-layer totals over a span list.
struct LayerTime {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  /// total minus the time covered by direct child spans.
  std::int64_t self_ns = 0;
};

using LayerTimes = std::array<LayerTime, kNumLayers>;

/// Sums calls, durations and self times per layer. A span's self time is
/// its duration minus its direct children's durations; children nest inside
/// their parent, so this is the part of the interval no child covers.
LayerTimes layer_times(const std::vector<Span>& spans);

/// Writes `spans` as fixed 32-byte little-endian records after a one-line
/// text header naming the layers (format: perfbench/README.md).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace podbench

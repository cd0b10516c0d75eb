// Synthetic trace generator.
//
// Produces a Trace (warm-up prefix + measured suffix) matching a
// WorkloadProfile. Fully deterministic for a given profile (seeded RNG).
#pragma once

#include "common/zipf.hpp"
#include "synth/burst_model.hpp"
#include "synth/content_pool.hpp"
#include "synth/profile.hpp"
#include "trace/request.hpp"

namespace pod {

class TraceGenerator {
 public:
  explicit TraceGenerator(WorkloadProfile profile);

  /// Generates warmup_requests + measured_requests requests.
  Trace generate();

  const WorkloadProfile& profile() const { return profile_; }

 private:
  struct WriteRecord {
    Lba lba;
    std::vector<std::uint64_t> content_ids;
    /// True when the record's data was laid out as one fresh contiguous
    /// extent of indexable content (unique writes, or replays of clean
    /// records). Only clean records serve as duplication sources: replaying
    /// a scattered record would never be sequential on disk, which is not
    /// how real workloads produce their fully redundant writes (repeated
    /// files/messages originally written contiguously).
    bool clean = false;
  };

  /// Appends one generated request to `trace` (fingerprints go straight
  /// into the trace arena; no per-request allocation).
  void emit_write(Trace& trace, SimTime arrival);
  void emit_read(Trace& trace, SimTime arrival);

  WriteClass pick_class();
  /// Picks a dup source among recent writes, Zipf-skewed toward recency.
  /// When `clean_only`, retries a few times for a clean record of at least
  /// `min_size` chunks (so replay sizes do not shrink through replay
  /// chains); falls back to the largest clean record seen.
  const WriteRecord* pick_history(Rng& rng, bool clean_only = false,
                                  std::uint32_t min_size = 0);
  Lba alloc_fresh(std::uint32_t nblocks);
  std::uint64_t fresh_content();
  void remember(Lba lba, const std::vector<std::uint64_t>& ids, bool clean);

  WorkloadProfile profile_;
  Rng rng_;
  std::vector<WriteRecord> history_;  // ring buffer
  std::size_t history_next_ = 0;
  std::size_t history_filled_ = 0;
  ZipfSampler history_zipf_;
  ZipfSampler read_zipf_;
  ContentPool pool_;
  BurstModel burst_;
  Lba fresh_lba_ = 0;
  Lba high_water_lba_ = 0;
  std::uint64_t next_content_ = 0;
  std::uint64_t next_id_ = 0;
  /// Reused per-request scratch buffers (content ids / fingerprints).
  std::vector<std::uint64_t> ids_scratch_;
  std::vector<Fingerprint> fps_scratch_;
};

/// Convenience: generate a paper trace by name ("web-vm", "homes", "mail").
Trace generate_paper_trace(const std::string& name, double scale = 1.0);

}  // namespace pod

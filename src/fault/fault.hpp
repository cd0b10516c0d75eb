// Deterministic fault injection for the simulated I/O stack.
//
// POD's reliability story (§I: a deduplicated block with refcount N turns a
// single media error into N logical losses) is invisible while every
// simulated I/O succeeds. The FaultInjector decides — per dispatched disk
// op, from a seeded per-disk RNG stream — whether the op suffers a latent
// sector (media) error, a transient timeout, or nothing, and tracks a
// scheduled whole-disk failure. Decisions are reproducible: the same seed
// and workload produce the same fault sequence, and a disabled injector
// draws no random numbers at all, so fault-free replays stay byte-identical
// to runs without any injector attached.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace pod {

/// Completion status of a disk / volume / request-level operation.
/// Severity-ordered so that aggregating a fan-out is a max().
enum class IoStatus : std::uint8_t {
  kOk = 0,
  /// Transient failure that outlived the bounded retry budget.
  kTimeout = 1,
  /// Unrecoverable latent sector error: the data at the target is lost.
  kMediaError = 2,
  /// The whole device is gone (no redundancy absorbed the loss).
  kFailedDevice = 3,
};

const char* to_string(IoStatus s);

/// Worst-of combiner for fan-out completions.
constexpr IoStatus combine(IoStatus a, IoStatus b) { return a > b ? a : b; }

/// What the injector decided for one dispatched disk op.
enum class FaultKind : std::uint8_t { kNone = 0, kTransient, kMediaError };

struct FaultConfig {
  /// Master gate. When false the injector is never consulted and the
  /// simulation is bit-for-bit what it was before this subsystem existed.
  bool enabled = false;

  /// Seeds the per-disk decision streams (stream d = seed advanced by d
  /// jumps, so disks stay independent of each other's op interleaving).
  std::uint64_t seed = 0xF4011'7ULL;

  /// Per-op probability of an unrecoverable latent sector error (reads
  /// report the loss; writes report the failed persist).
  double media_error_rate = 0.0;
  /// Per-attempt probability of a transient timeout (controller hiccup,
  /// recovered by retry).
  double transient_rate = 0.0;
  /// Extra latency charged for retry attempt k: k * transient_backoff.
  Duration transient_backoff = ms(5);
  /// Bounded retry budget for transients; exhausting it surfaces kTimeout.
  std::uint32_t max_retries = 3;

  /// Whole-disk failure: member `fail_disk` dies at simulated time
  /// `fail_at` (< 0 = never). RAID5 routes around it (reconstruction
  /// reads / degraded writes); RAID0 ops addressed to it fail fast.
  std::size_t fail_disk = ~std::size_t{0};
  SimTime fail_at = -1;
  /// When true, RAID5 attaches a hot spare at failure time and rebuilds
  /// onto it in paced background batches.
  bool auto_rebuild = true;
  /// Stripe rows reconstructed per background rebuild batch.
  std::uint64_t rebuild_batch_rows = 8;
  /// Pacing delay between rebuild batches (lets foreground I/O breathe).
  Duration rebuild_interval = ms(2);
};

/// Cumulative injector activity (what was injected, not what survived).
struct FaultStats {
  std::uint64_t media_errors = 0;
  std::uint64_t transients = 0;
  std::uint64_t transient_retries = 0;
  std::uint64_t timeouts = 0;
  /// Ops fast-failed because they addressed a dead disk.
  std::uint64_t dead_disk_ops = 0;
  std::uint64_t disk_failures = 0;
};

/// One injector per volume; member disks consult it at dispatch time.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg);

  const FaultConfig& config() const { return cfg_; }

  /// Per-op decision from disk `disk`'s stream. Draws exactly one RNG
  /// value when any rate is positive, zero otherwise.
  FaultKind decide(std::size_t disk, OpType type, std::uint64_t block,
                   std::uint64_t nblocks);

  /// Re-draws the transient for retry attempt `attempt` (same stream).
  /// True = still failing.
  bool retry_still_failing(std::size_t disk);

  /// True once simulated time has reached the configured whole-disk
  /// failure and the failure has not been absorbed by a spare.
  bool disk_dead(std::size_t disk, SimTime now) const;

  /// True when the volume layer should transition to degraded mode now
  /// (failure time reached, not yet acknowledged).
  bool disk_failure_due(SimTime now) const;
  std::size_t failing_disk() const { return cfg_.fail_disk; }
  /// Volume acknowledgement of the failure (counts it once).
  void note_disk_failed();
  /// Attaches the hot spare: the failed slot services I/O again (rebuild
  /// writes land on the spare) while the array stays logically degraded.
  void attach_spare();

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

 private:
  Rng& stream(std::size_t disk);

  FaultConfig cfg_;
  std::vector<Rng> streams_;
  bool failure_noted_ = false;
  bool spare_attached_ = false;
  FaultStats stats_;
};

}  // namespace pod

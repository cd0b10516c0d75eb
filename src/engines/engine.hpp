// The common deduplication-engine framework.
//
// An engine owns the policy half of the system: caches, fingerprint index,
// Map table / block store, and the per-request decision logic. The timing
// half (disks, RAID) is the Volume it drives. Engines support two
// processing modes:
//   * submit(): full discrete-event execution — the request's CPU delay and
//     disk operations play out on the simulator and the completion callback
//     fires at the simulated finish time;
//   * warm(): functional execution — identical state updates (caches,
//     index, map table, allocation) with all timing dropped. Used for the
//     paper's 14-day warm-up phase at a fraction of the cost.
//
// Volume layout (physical block addresses):
//   [0, data_blocks)                      data region (home area + pool)
//   [data_blocks, +index_blocks)          reserved on-disk fingerprint index
//   [.., +swap_blocks)                    reserved iCache swap area
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/index_cache.hpp"
#include "cache/read_cache.hpp"
#include "common/inline_vec.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dedup/allocator.hpp"
#include "dedup/categorizer.hpp"
#include "dedup/ondisk_index.hpp"
#include "fault/journal.hpp"
#include "hash/hash_engine.hpp"
#include "raid/volume.hpp"
#include "replay/anatomy.hpp"
#include "sim/simulator.hpp"
#include "trace/request.hpp"

namespace pod {

class ICache;
class Telemetry;
class TraceEventWriter;
class MetricCounter;

struct EngineConfig {
  /// Total DRAM budget split between index cache and read cache.
  std::uint64_t memory_bytes = 64 * kMiB;
  /// Fixed-partition engines: share of memory given to the index cache.
  /// (Native ignores this and uses everything as read cache; POD adapts.)
  double index_fraction = 0.5;

  /// Select-Dedupe's category threshold (paper default: 3 chunks).
  std::size_t select_threshold = 3;

  /// iDedup: requests of at most this many blocks are bypassed entirely
  /// ("small requests, e.g. 4KB, 8KB or less").
  std::uint32_t idedup_bypass_blocks = 2;
  /// iDedup: minimum sequential duplicate run worth deduplicating.
  std::size_t idedup_seq_threshold = 4;

  /// Logical volume size exposed to the workload, in blocks.
  std::uint64_t logical_blocks = 512 * 1024;
  /// Over-provision pool for redirected writes, as a fraction of logical.
  double pool_fraction = 0.25;

  /// Reserved on-disk index region, in blocks (buckets).
  std::uint64_t index_region_blocks = 1 << 16;
  /// Give Full-Dedupe a DDFS-style Bloom filter that short-circuits in-disk
  /// lookups for definitely-new fingerprints (on by default — production
  /// full-dedupe systems of the paper's era all have one, and the paper's
  /// own Full-Dedupe homes numbers are consistent with fragmentation, not
  /// raw lookup traffic, dominating). Disable for the in-disk index-lookup
  /// bottleneck ablation (§II-B).
  bool full_dedupe_bloom = true;
  /// Reserved swap region for iCache, in blocks.
  std::uint64_t swap_region_blocks = 1 << 15;

  /// Test-only: route index probes AND index inserts through the scalar
  /// per-chunk path instead of the batched two-phase / request-scoped bulk
  /// path. Replay output is asserted byte-identical between the two
  /// (batch_equivalence_test); this switch exists so that assertion has a
  /// reference to compare against.
  bool scalar_probes = false;

  /// Selects the fused single-pass lookup (IndexCache::lookup_fused and the
  /// tagged read-plan loop) over the PR7 two-phase batch path. All three
  /// probe modes — scalar (scalar_probes), batch (fused_probes = false) and
  /// fused (default) — produce byte-identical replay output
  /// (batch_equivalence_test asserts it per engine). Ignored while
  /// scalar_probes is set.
  bool fused_probes = true;

  /// Record every dedup-metadata mutation (Map-table binds/unbinds, index
  /// puts/dels) in a write-ahead journal for crash-recovery simulation.
  /// Off by default: journaling is pure overhead when no crash is staged.
  bool journal_metadata = false;

  HashEngineConfig hash;
};

/// Total volume capacity an EngineConfig requires (data + index + swap).
std::uint64_t required_volume_blocks(const EngineConfig& cfg);

struct EngineStats {
  std::uint64_t write_requests = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_blocks = 0;
  std::uint64_t read_blocks = 0;
  /// Write requests whose data writes were entirely eliminated.
  std::uint64_t writes_eliminated = 0;
  /// Individual chunks deduplicated (no disk write, map update only).
  std::uint64_t chunks_deduped = 0;
  /// Chunks physically written.
  std::uint64_t chunks_written = 0;
  /// Requests per Select-Dedupe category (indexed by WriteCategory).
  std::uint64_t category_counts[4] = {0, 0, 0, 0};
  /// Disk reads charged to on-disk index lookups.
  std::uint64_t index_disk_reads = 0;
  /// Disk writes charged to on-disk index maintenance.
  std::uint64_t index_disk_writes = 0;
  /// Number of distinct volume ops issued for read requests (read
  /// amplification = this / read_requests).
  std::uint64_t read_ops_issued = 0;

  // ---- fault outcomes (all zero when no injector is attached) ---------
  /// Volume ops that completed with a media error / exhausted-retry
  /// timeout / dead-device failure.
  std::uint64_t media_error_ops = 0;
  std::uint64_t timeout_ops = 0;
  std::uint64_t device_error_ops = 0;
  /// Dedup blast radius of media errors: distinct live physical blocks in
  /// failed op ranges, and the logical blocks mapped onto them — a shared
  /// block with refcount N loses N LBAs' worth of data at once (§I).
  std::uint64_t damaged_physical_blocks = 0;
  std::uint64_t damaged_logical_blocks = 0;
  /// Requests whose final status was not kOk.
  std::uint64_t failed_requests = 0;

  double removed_write_pct() const {
    return write_requests == 0 ? 0.0
                               : 100.0 * static_cast<double>(writes_eliminated) /
                                     static_cast<double>(write_requests);
  }
  double dedup_ratio() const {
    const std::uint64_t total = chunks_deduped + chunks_written;
    return total == 0 ? 0.0
                      : static_cast<double>(chunks_deduped) /
                            static_cast<double>(total);
  }

  /// Counter-wise difference (for measured-phase-only reporting: snapshot
  /// at measurement start, delta at the end).
  static EngineStats delta(const EngineStats& after, const EngineStats& before);
};

class DedupEngine {
 public:
  DedupEngine(Simulator& sim, Volume& volume, const EngineConfig& cfg);
  virtual ~DedupEngine() = default;

  DedupEngine(const DedupEngine&) = delete;
  DedupEngine& operator=(const DedupEngine&) = delete;

  virtual const char* name() const = 0;

  /// Timed processing: `done` fires at the simulated completion time with
  /// the request's worst per-op status (kOk when faults are disabled).
  void submit(const IoRequest& req, IoDoneFn done);
  /// Status-blind convenience overload.
  void submit(const IoRequest& req, std::function<void()> done);
  /// A literal nullptr callback is ambiguous between the overloads above;
  /// resolve it to the status-aware one.
  void submit(const IoRequest& req, std::nullptr_t) {
    submit(req, IoDoneFn{});
  }

  /// Functional processing (state only, no simulated time).
  void warm(const IoRequest& req);

  /// Called by the replayer when the measured phase begins.
  virtual void begin_measured() {}

  const EngineStats& stats() const { return stats_; }
  const BlockStore& store() const { return store_; }
  const HashEngine& hash_engine() const { return hash_; }
  ReadCache& read_cache() { return read_cache_; }
  const ReadCache& read_cache() const { return read_cache_; }
  /// Null for engines without a fingerprint index (Native).
  IndexCache* index_cache() { return index_cache_.get(); }
  const IndexCache* index_cache() const { return index_cache_.get(); }
  /// The adaptive cache partitioner, when the engine has one (POD only) —
  /// lets observers (telemetry sampler) read the live split without
  /// downcasting.
  virtual const ICache* adaptive_cache() const { return nullptr; }
  const EngineConfig& config() const { return cfg_; }

  /// Physical capacity in use (Figure 10).
  std::uint64_t physical_blocks_used() const { return store_.live_physical_blocks(); }
  /// Map-table NVRAM requirement (§IV-D2).
  std::uint64_t map_table_bytes() const { return store_.map_table().bytes(); }
  std::uint64_t map_table_max_bytes() const { return store_.map_table().max_bytes(); }

  /// Heap bytes held by the per-engine request scratch arena. Grows to the
  /// largest request processed, then stays flat — a replayer-visible proxy
  /// for "the request path has stopped allocating".
  std::uint64_t scratch_bytes() const { return scratch_.capacity_bytes(); }

  /// The metadata write-ahead journal (null unless cfg.journal_metadata).
  MetadataJournal* metadata_journal() { return journal_.get(); }
  const MetadataJournal* metadata_journal() const { return journal_.get(); }

 protected:
  /// One volume operation an engine wants executed.
  struct OpSpec {
    OpType type = OpType::kRead;
    Pba block = 0;
    std::uint64_t nblocks = 1;
  };

  /// Op list sized for the common case: after coalescing, nearly every
  /// request needs a handful of extents, so plans carry their ops inline
  /// and only pathological scatter spills to the heap.
  using OpList = InlineVec<OpSpec, 8>;

  /// The timing plan for a request: a CPU delay, then stage1 ops (all in
  /// parallel), then — once stage1 completes — stage2 ops.
  struct IoPlan {
    Duration cpu = 0;
    OpList stage1;
    OpList stage2;
    bool empty() const { return stage1.empty() && stage2.empty(); }
  };

  /// Reusable per-engine request scratch. Every buffer the write/read path
  /// needs lives here, sized once to the largest request seen and reset per
  /// request, so steady-state request processing performs no allocation.
  /// The dedup mask is a plain bitmask (one word per 64 chunks), not a
  /// std::vector<bool>, so resets are memsets and tests are single loads.
  struct WriteScratch {
    std::vector<ChunkDup> dups;         // per-chunk dedup candidates
    std::vector<std::uint64_t> mask;    // dedup decision bitmask
    std::vector<const IndexEntry*> probes;  // batched index-probe results
    std::vector<Pba> written;           // PBAs placed by write_remaining_chunks
    std::vector<DupRun> dedup_runs;     // runs selected for deduplication
    std::vector<std::pair<Pba, std::uint64_t>> write_runs;  // stage2 coalescing
    std::vector<std::pair<Pba, std::uint64_t>> aux_runs;    // stage1 coalescing
    std::vector<Pba> read_pbas;         // resolved targets of a read request
    std::vector<std::uint32_t> pba_tags;  // fused read plan: per-PBA cache tags
    std::vector<std::uint32_t> fp_tags;   // fused sequential classify: per-fp tags
    // Request-scoped index-insert staging: the write tail loops collect
    // (fingerprint, pba) pairs here and flush_index_inserts() hands them to
    // IndexCache::insert_batch — one LRU splice and one eviction sweep per
    // request instead of per chunk.
    std::vector<Fingerprint> stage_fps;
    std::vector<Pba> stage_pbas;

    /// Prepares the write-path buffers for an `n`-chunk request.
    void reset_write(std::size_t n) {
      if (dups.size() < n) dups.resize(n);
      std::fill(dups.begin(), dups.begin() + static_cast<std::ptrdiff_t>(n),
                ChunkDup{});
      const std::size_t words = (n + 63) / 64;
      if (mask.size() < words) mask.resize(words);
      std::fill(mask.begin(), mask.begin() + static_cast<std::ptrdiff_t>(words),
                std::uint64_t{0});
      written.clear();
      dedup_runs.clear();
      write_runs.clear();
      aux_runs.clear();
      stage_fps.clear();
      stage_pbas.clear();
    }

    bool masked(std::size_t i) const {
      return (mask[i >> 6] >> (i & 63)) & 1u;
    }
    void set_mask(std::size_t i) {
      mask[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    void clear_mask(std::size_t i) {
      mask[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    std::uint64_t capacity_bytes() const {
      return dups.capacity() * sizeof(ChunkDup) +
             mask.capacity() * sizeof(std::uint64_t) +
             probes.capacity() * sizeof(const IndexEntry*) +
             written.capacity() * sizeof(Pba) +
             dedup_runs.capacity() * sizeof(DupRun) +
             write_runs.capacity() * sizeof(std::pair<Pba, std::uint64_t>) +
             aux_runs.capacity() * sizeof(std::pair<Pba, std::uint64_t>) +
             read_pbas.capacity() * sizeof(Pba) +
             pba_tags.capacity() * sizeof(std::uint32_t) +
             fp_tags.capacity() * sizeof(std::uint32_t) +
             stage_fps.capacity() * sizeof(Fingerprint) +
             stage_pbas.capacity() * sizeof(Pba);
    }
  };

  /// Engine policy: updates all state and returns the plan.
  virtual IoPlan process_write(const IoRequest& req) = 0;
  virtual IoPlan process_read(const IoRequest& req);

  // ---- shared helpers -------------------------------------------------

  /// Default read path: resolve the whole request through the store
  /// (prefetching read-cache buckets along the way), then consult the read
  /// cache per block and coalesce misses into contiguous volume reads.
  IoPlan build_read_plan(const IoRequest& req);

  /// Fills s.dups with the request's index-probe results: one fused
  /// single-pass IndexCache::lookup_fused over the fingerprint span (the
  /// default), the two-phase lookup_batch when cfg_.fused_probes is off, or
  /// the scalar per-chunk loop when cfg_.scalar_probes is set. All three
  /// produce identical dups, cache state and counters (see lookup_fused).
  void probe_dups(const IoRequest& req, WriteScratch& s);

  /// Writes the non-deduplicated chunks of a request: walks the maximal
  /// unmasked runs, places each through BlockStore::place_write_run (home
  /// or redirected, contiguity-aware), appends the targets to s.written,
  /// and emits coalesced write ops into `plan.stage2`.
  void write_remaining_chunks(const IoRequest& req, WriteScratch& s,
                              IoPlan& plan);

  /// Applies per-chunk dedup decisions: for every masked chunk, points
  /// LBA i at s.dups[i].pba. Each candidate is revalidated immediately
  /// before use — deduplicating an earlier chunk of the same request can
  /// release the physical block a later chunk targeted (e.g. an
  /// overlapping overwrite); such chunks have their mask cleared and are
  /// written normally by write_remaining_chunks.
  void apply_dedup(const IoRequest& req, WriteScratch& s);

  /// Run-wise variant for engines whose dedup decisions are s.dedup_runs:
  /// each run remaps through BlockStore::remap_run (same per-chunk
  /// revalidation and mask-clearing as apply_dedup, one call per run).
  void apply_dedup_runs(const IoRequest& req, WriteScratch& s);

  /// Verifies a dedup candidate still holds the expected content.
  bool candidate_valid(const Fingerprint& fp, Pba pba) const;

  /// Stages an index-cache insert for the current request (or performs it
  /// immediately on the scalar reference path). Safe only for inserts whose
  /// visibility nothing later in the same request depends on — the write
  /// tail loops qualify (they run after every probe and store mutation);
  /// Full-Dedupe's mid-request promotions do not and stay immediate.
  void stage_index_insert(WriteScratch& s, const Fingerprint& fp, Pba pba) {
    if (cfg_.scalar_probes) {
      index_cache_->insert(fp, pba);
      return;
    }
    s.stage_fps.push_back(fp);
    s.stage_pbas.push_back(pba);
  }

  /// Flushes staged inserts as one IndexCache::insert_batch.
  void flush_index_inserts(WriteScratch& s) {
    if (s.stage_fps.empty()) return;
    index_cache_->insert_batch(s.stage_fps.data(), s.stage_pbas.data(),
                               s.stage_fps.size());
    s.stage_fps.clear();
    s.stage_pbas.clear();
  }

  /// Coalesces (type-homogeneous) block ops into contiguous OpSpecs.
  /// Sorts `runs` in place.
  static void coalesce_into(std::vector<std::pair<Pba, std::uint64_t>>& runs,
                            OpType type, OpList& out);

  Pba index_region_start() const { return store_.data_region_blocks(); }
  Pba swap_region_start() const {
    return store_.data_region_blocks() + cfg_.index_region_blocks;
  }

  /// Fire-and-forget background op (index maintenance, iCache swaps).
  void issue_background(OpType type, Pba block, std::uint64_t nblocks);

  /// Invoked when a physical block's content is replaced or freed. The
  /// base invalidates read-cache and index-cache entries; subclasses extend
  /// (e.g. Full-Dedupe erases the on-disk index entry).
  virtual void on_content_gone(Pba pba, const Fingerprint& fp);

  Simulator& sim_;
  Volume& volume_;
  EngineConfig cfg_;
  HashEngine hash_;
  BlockStore store_;
  ReadCache read_cache_;
  /// Present when cfg_.index_fraction > 0 (every engine except Native).
  std::unique_ptr<IndexCache> index_cache_;
  /// Present when cfg_.journal_metadata; attached to store_ (and to the
  /// on-disk index by engines that have one).
  std::unique_ptr<MetadataJournal> journal_;
  EngineStats stats_;
  /// Request-path scratch arena (see WriteScratch).
  WriteScratch scratch_;
  /// True while processing a warm() call: plans are built but not executed,
  /// and background I/O is suppressed.
  bool warming_ = false;

 private:
  /// In-flight request state, pooled and recycled through a freelist. The
  /// per-op volume callbacks capture {state pointer, op}; stage lists keep
  /// their capacity across reuse — the request path allocates nothing at
  /// steady state.
  struct RequestState {
    std::size_t outstanding = 0;
    IoStatus status = IoStatus::kOk;  // worst-of across the request's ops
    OpList stage1;
    OpList stage2;
    IoDoneFn done;
    /// Non-null only while trace-event output is on for this run; the
    /// nested stage spans share the outer request span's (cat, id).
    TraceEventWriter* trace = nullptr;
    std::uint64_t req_id = 0;
    RequestState* next_free = nullptr;
    // ---- latency-anatomy fields, written only while a collector is
    // attached to the simulator (see replay/anatomy.hpp) ----------------
    /// Component accumulator: CPU at execute_plan, each stage's critical
    /// volume-op breakdown at stage_op_done.
    LatBreakdown anatomy;
    SimTime submit_time = 0;
    std::uint64_t dedup_hits = 0;
    std::uint32_t stream = 0;
    std::uint32_t nblocks = 0;
    OpType type = OpType::kRead;
  };

  void execute_plan(const IoRequest& req, IoPlan plan, IoDoneFn done,
                    std::uint64_t dedup_hits = 0);

  RequestState* acquire_state();
  void release_state(RequestState* st);
  void start_io(RequestState* st);
  /// Issues one stage's ops in parallel (`stage1` selects the list and the
  /// follow-on: stage2 after stage1, finish after stage2).
  void issue_stage(RequestState* st, bool stage1);
  void stage_op_done(RequestState* st, const OpSpec& op, IoStatus s,
                     bool stage1);
  void finish_request(RequestState* st);

  /// Per-op fault outcome accounting. The kOk early-out keeps the healthy
  /// path at one compare; the cold half (counter bumps + media-error blast
  /// radius over the op's PBA range) lives out of line.
  void note_op_status(const OpSpec& op, IoStatus s) {
    if (s == IoStatus::kOk) return;
    record_op_fault(op, s);
  }
  void record_op_fault(const OpSpec& op, IoStatus s);

  /// Binds metric handles / registers pull probes on first use (telemetry
  /// may be attached to the simulator after engine construction).
  void init_telemetry(Telemetry& t);

  /// Telemetry handles; `init` doubles as the bound-once sentinel. All
  /// null/false when telemetry is off — each hot-path site costs a single
  /// branch on sim_.telemetry().
  struct Telem {
    bool init = false;
    MetricCounter* batch_probes = nullptr;
    MetricCounter* batch_probe_hits = nullptr;
    TraceEventWriter* trace = nullptr;
  } telem_;

  /// Request-state pool (see RequestState).
  std::vector<std::unique_ptr<RequestState>> request_pool_;
  RequestState* free_requests_ = nullptr;
};

}  // namespace pod

#include "replay/replayer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/check.hpp"
#include "common/resource.hpp"
#include "common/spsc_ring.hpp"
#include "engines/full_dedupe.hpp"
#include "engines/idedup.hpp"
#include "engines/io_dedup.hpp"
#include "engines/native.hpp"
#include "engines/select_dedupe.hpp"
#include "raid/raid0.hpp"
#include "raid/raid5.hpp"
#include "telemetry/telemetry.hpp"

namespace pod {

namespace {

/// One prepared arrival: the trace request plus its rebased admission time.
struct PreparedEntry {
  const IoRequest* req = nullptr;
  SimTime arrival = 0;
};

/// The ring's unit of transfer. Batching amortizes the atomic hand-off and
/// keeps the prepare thread a coarse step ahead of the DES.
struct PreparedBatch {
  std::array<PreparedEntry, 64> entries;
  std::uint32_t count = 0;
};

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNative: return "native";
    case EngineKind::kFullDedupe: return "full-dedupe";
    case EngineKind::kIDedup: return "idedup";
    case EngineKind::kSelectDedupe: return "select-dedupe";
    case EngineKind::kPod: return "pod";
    case EngineKind::kIoDedup: return "io-dedup";
    case EngineKind::kPostProcess: return "post-process";
  }
  return "?";
}

ReplayResult Replayer::replay(Simulator& sim, DedupEngine& engine,
                              const Trace& trace) {
  ReplayResult result;
  result.engine_name = engine.name();
  result.trace_name = trace.name;

  // Phase 1: functional warm-up.
  for (std::size_t i = 0; i < trace.warmup_count; ++i)
    engine.warm(trace.requests[i]);

  // Phase 2: timed replay of the measured suffix, arrivals rebased to 0.
  const EngineStats before = engine.stats();
  engine.begin_measured();

  const std::size_t first = trace.warmup_count;
  const std::size_t total = trace.requests.size();
  const std::size_t count = total - first;
  if (count == 0) return result;
  const SimTime t0 = trace.requests[first].arrival;
  const std::uint64_t scheduled_before = sim.events_scheduled();

  // Telemetry is observation-only here: no simulator events are scheduled
  // for it (the sampler is polled at arrivals/completions), so the event
  // stream — and every result byte — is identical with it on or off.
  Telemetry* const telem = sim.telemetry();
  TraceEventWriter* const trace_w = telem != nullptr ? telem->trace() : nullptr;

  auto admit = [telem, trace_w](const IoRequest& req, SimTime arrival) {
    if (telem == nullptr) return;
    telem->maybe_sample(arrival);
    if (trace_w != nullptr)
      trace_w->async_begin(kTraceCatRequest, req.id,
                           req.is_write() ? "write" : "read", arrival,
                           {{"lba", req.lba}, {"nblocks", req.nblocks}});
  };

  // The returned recorder takes (and ignores) the request's IoStatus so it
  // binds directly into the engine's IoDoneFn — inline, no std::function
  // wrapper allocation per request.
  auto record = [&sim, &result, telem, trace_w](SimTime arrival, OpType type,
                                                std::uint64_t id) {
    return [&sim, &result, telem, trace_w, arrival, type, id](IoStatus) {
      const Duration latency = sim.now() - arrival;
      result.all.add(latency);
      if (type == OpType::kWrite) result.writes.add(latency);
      else result.reads.add(latency);
      if (telem != nullptr) {
        if (trace_w != nullptr)
          trace_w->async_end(kTraceCatRequest, id,
                             type == OpType::kWrite ? "write" : "read",
                             sim.now());
        telem->maybe_sample(sim.now());
      }
    };
  };

  if (mode_ == AdmissionMode::kPrescheduled) {
    for (std::size_t i = first; i < total; ++i) {
      const IoRequest& req = trace.requests[i];
      const SimTime arrival = req.arrival - t0;
      POD_CHECK(arrival >= 0);
      sim.schedule_at(arrival, [&engine, &req, arrival, record, admit]() {
        admit(req, arrival);
        engine.submit(req, record(arrival, req.type, req.id));
      });
    }
    sim.run();
  } else if (!pipeline_.enabled) {
    // Streaming admission: the next arrival is submitted as soon as it is
    // not later than every pending simulation event (ties admit the
    // arrival first — see AdmissionMode::kStreaming for why this matches
    // the prescheduled order exactly). Trace arrivals never enter the
    // event heap at all.
    std::size_t next = first;
    SimTime last_arrival = 0;
    while (true) {
      if (next < total) {
        const IoRequest& req = trace.requests[next];
        const SimTime arrival = req.arrival - t0;
        if (arrival < last_arrival)
          throw std::runtime_error("streaming replay: trace \"" + trace.name +
                                   "\" is not time-ordered");
        if (sim.idle() || arrival <= sim.next_event_time()) {
          sim.advance_to(arrival);
          last_arrival = arrival;
          admit(req, arrival);
          engine.submit(req, record(arrival, req.type, req.id));
          ++next;
          continue;
        }
      }
      if (!sim.step()) break;
    }
  } else {
    // Pipelined streaming admission: a prepare thread walks the trace ahead
    // of the DES — rebasing arrivals, validating time order, prefetching
    // each write's fingerprint cache lines — and hands PreparedBatches over
    // the SPSC ring. The DES thread below consumes them with admission
    // logic identical to the serial loop above, so event order (and every
    // result byte) is unchanged; only who touches the trace memory first
    // differs.
    SpscRing<PreparedBatch> ring(pipeline_.depth);
    std::atomic<bool> producer_done{false};
    std::atomic<bool> cancel{false};
    std::atomic<bool> order_error{false};
    std::atomic<std::uint64_t> producer_stalls{0};

    std::thread producer([&] {
      PreparedBatch batch;
      SimTime last = 0;
      auto push = [&](PreparedBatch&& b) {
        while (!ring.try_push(std::move(b))) {
          producer_stalls.fetch_add(1, std::memory_order_relaxed);
          if (cancel.load(std::memory_order_acquire)) return false;
          std::this_thread::yield();
        }
        return true;
      };
      for (std::size_t i = first; i < total; ++i) {
        const IoRequest& req = trace.requests[i];
        const SimTime arrival = req.arrival - t0;
        if (arrival < last) {
          order_error.store(true, std::memory_order_release);
          break;
        }
        last = arrival;
        // Pull the write's fingerprints toward the cache before the DES
        // hashes them (4 fingerprints per 64-byte line; the arena is far
        // larger than LLC on real traces).
        const Fingerprint* fp = req.chunks.data();
        for (std::size_t c = 0; c < req.chunks.size(); c += 4)
          __builtin_prefetch(fp + c, 0, 1);
        batch.entries[batch.count++] = {&req, arrival};
        if (batch.count == batch.entries.size()) {
          if (!push(std::move(batch))) return;
          batch.count = 0;
        }
      }
      if (batch.count > 0) push(std::move(batch));
      producer_done.store(true, std::memory_order_release);
    });

    // Join (after cancelling) on every exit path, including exceptions
    // thrown by the engine mid-replay.
    struct Joiner {
      std::thread& t;
      std::atomic<bool>& cancel;
      ~Joiner() {
        cancel.store(true, std::memory_order_release);
        if (t.joinable()) t.join();
      }
    } joiner{producer, cancel};

    PreparedBatch cur;
    std::uint32_t ci = 0;
    bool exhausted = false;
    std::uint64_t batches = 0;
    std::uint64_t consumer_stalls = 0;
    std::uint64_t occupancy_sum = 0;

    // Blocks until the next batch arrives; false once the producer finished
    // and the ring is drained.
    auto refill = [&]() {
      for (;;) {
        if (ring.try_pop(cur)) {
          occupancy_sum += ring.occupancy() + 1;
          ++batches;
          ci = 0;
          return true;
        }
        if (producer_done.load(std::memory_order_acquire)) {
          if (!ring.try_pop(cur)) return false;
          occupancy_sum += ring.occupancy() + 1;
          ++batches;
          ci = 0;
          return true;
        }
        ++consumer_stalls;
        std::this_thread::yield();
      }
    };

    while (true) {
      if (ci >= cur.count && !exhausted && !refill()) exhausted = true;
      if (ci < cur.count) {
        const PreparedEntry& e = cur.entries[ci];
        if (sim.idle() || e.arrival <= sim.next_event_time()) {
          sim.advance_to(e.arrival);
          admit(*e.req, e.arrival);
          engine.submit(*e.req, record(e.arrival, e.req->type, e.req->id));
          ++ci;
          continue;
        }
      }
      if (!sim.step()) break;
    }
    if (order_error.load(std::memory_order_acquire))
      throw std::runtime_error("streaming replay: trace \"" + trace.name +
                               "\" is not time-ordered");

    result.pipeline.enabled = true;
    result.pipeline.depth = ring.capacity();
    result.pipeline.batches = batches;
    result.pipeline.producer_stalls =
        producer_stalls.load(std::memory_order_relaxed);
    result.pipeline.consumer_stalls = consumer_stalls;
    result.pipeline.mean_occupancy =
        batches > 0 ? static_cast<double>(occupancy_sum) /
                          static_cast<double>(batches)
                    : 0.0;
    if (telem != nullptr) {
      MetricsRegistry& m = telem->metrics();
      m.counter("replay.pipeline.batches").inc(batches);
      m.counter("replay.pipeline.producer_stalls")
          .inc(result.pipeline.producer_stalls);
      m.counter("replay.pipeline.consumer_stalls").inc(consumer_stalls);
      m.gauge("replay.pipeline.depth")
          .set(static_cast<double>(ring.capacity()));
      m.gauge("replay.pipeline.mean_occupancy")
          .set(result.pipeline.mean_occupancy);
    }
  }

  result.measured = EngineStats::delta(engine.stats(), before);
  result.events_scheduled = sim.events_scheduled() - scheduled_before;
  result.peak_event_depth = sim.peak_event_depth();
  result.physical_blocks_used = engine.physical_blocks_used();
  result.map_table_bytes = engine.map_table_bytes();
  result.map_table_max_bytes = engine.map_table_max_bytes();
  result.chunks_hashed = engine.hash_engine().chunks_hashed();
  result.read_cache_bytes = engine.read_cache().capacity_bytes();
  result.read_cache_hit_rate = engine.read_cache().hit_rate();
  if (const IndexCache* ic = engine.index_cache()) {
    result.index_cache_bytes = ic->capacity_bytes();
    result.index_cache_hit_rate = ic->hit_rate();
    result.batch_probes = ic->batch_probes();
  }
  result.scratch_bytes = engine.scratch_bytes();
  if (const ICache* ic = engine.adaptive_cache()) {
    result.icache = ic->stats();
    result.final_index_fraction = ic->index_fraction();
  }
  result.makespan = sim.now();
  return result;
}

/// Registers the sampled time-series columns: per-disk queue lengths, cache
/// occupancy/hit rates, the live memory split, and cumulative dedup
/// progress. Pull-only — probes read state the run maintains anyway.
static void register_sampler_probes(TimeSeriesSampler& s, const Volume& volume,
                                    const DedupEngine& engine) {
  for (std::size_t d = 0; d < volume.num_disks(); ++d) {
    const Disk& disk = volume.disk(d);
    s.add_probe(disk.name() + ".queue", [&disk] {
      return static_cast<double>(disk.queue_length());
    });
  }
  const ReadCache& rc = engine.read_cache();
  s.add_probe("read_cache.bytes",
              [&rc] { return static_cast<double>(rc.capacity_bytes()); });
  s.add_probe("read_cache.hit_rate", [&rc] { return rc.hit_rate(); });
  if (const IndexCache* ic = engine.index_cache()) {
    s.add_probe("index_cache.bytes",
                [ic] { return static_cast<double>(ic->capacity_bytes()); });
    s.add_probe("index_cache.hit_rate", [ic] { return ic->hit_rate(); });
  }
  if (const ICache* ac = engine.adaptive_cache()) {
    s.add_probe("icache.index_fraction",
                [ac] { return ac->index_fraction(); });
    s.add_probe("icache.adaptations", [ac] {
      return static_cast<double>(ac->stats().adaptations);
    });
  }
  const EngineStats& es = engine.stats();
  s.add_probe("engine.write_requests",
              [&es] { return static_cast<double>(es.write_requests); });
  s.add_probe("engine.read_requests",
              [&es] { return static_cast<double>(es.read_requests); });
  s.add_probe("engine.writes_eliminated",
              [&es] { return static_cast<double>(es.writes_eliminated); });
  s.add_probe("engine.dedup_ratio", [&es] { return es.dedup_ratio(); });
}

std::unique_ptr<Volume> make_volume(Simulator& sim, const RunSpec& spec) {
  const std::uint64_t needed = required_volume_blocks(spec.engine_cfg);
  ArrayConfig cfg = spec.array_cfg;
  const std::size_t data_disks =
      spec.raid == RaidLevel::kRaid5 ? cfg.num_disks - 1 : cfg.num_disks;
  POD_CHECK(data_disks >= 1);
  // Round per-disk capacity up to whole stripe units, plus one spare row.
  const std::uint64_t per_disk =
      ((needed / data_disks) / cfg.stripe_unit_blocks + 2) *
      cfg.stripe_unit_blocks;
  cfg.disk_geometry.total_blocks = per_disk;
  if (spec.raid == RaidLevel::kRaid5)
    return std::make_unique<Raid5>(sim, cfg);
  return std::make_unique<Raid0>(sim, cfg);
}

std::unique_ptr<DedupEngine> make_engine(Simulator& sim, Volume& volume,
                                         const RunSpec& spec) {
  switch (spec.engine) {
    case EngineKind::kNative:
      return std::make_unique<NativeEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kFullDedupe:
      return std::make_unique<FullDedupeEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kIDedup:
      return std::make_unique<IDedupEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kSelectDedupe:
      return std::make_unique<SelectDedupeEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kPod:
      return std::make_unique<PodEngine>(sim, volume, spec.engine_cfg, spec.pod);
    case EngineKind::kIoDedup:
      return std::make_unique<IoDedupEngine>(sim, volume, spec.engine_cfg);
    case EngineKind::kPostProcess:
      return std::make_unique<PostProcessEngine>(sim, volume, spec.engine_cfg,
                                                 spec.post_process);
  }
  POD_CHECK(false);
}

ReplayResult run_replay(const RunSpec& spec, const Trace& trace,
                        AdmissionMode mode, const PipelineConfig& pipeline) {
  RunSpec with_pipeline = spec;
  with_pipeline.pipeline = pipeline;
  return run_replay(with_pipeline, trace, mode);
}

ReplayResult run_replay(const RunSpec& spec, const Trace& trace,
                        AdmissionMode mode) {
  Simulator sim;
  // Null when no sink is configured, which keeps the disabled path free;
  // attached before the volume so member disks observe it from their
  // first op.
  std::unique_ptr<Telemetry> telemetry;
  if (spec.telemetry.any())
    telemetry = std::make_unique<Telemetry>(
        spec.telemetry, trace.name + "-" + to_string(spec.engine));
  sim.set_telemetry(telemetry.get());
  // Latency attribution: per-run like telemetry, so ParallelRunner workers
  // never share a collector.
  std::unique_ptr<LatencyAnatomy> anatomy;
  if (spec.anatomy) anatomy = std::make_unique<LatencyAnatomy>(*spec.anatomy);
  sim.set_anatomy(anatomy.get());
  std::unique_ptr<Volume> volume = make_volume(sim, spec);
  std::unique_ptr<DedupEngine> engine = make_engine(sim, *volume, spec);
  if (telemetry && telemetry->sampler() != nullptr)
    register_sampler_probes(*telemetry->sampler(), *volume, *engine);

  Replayer replayer(mode, spec.pipeline);
  ReplayResult result = replayer.replay(sim, *engine, trace);
  result.peak_rss_bytes = current_peak_rss_bytes();

  result.per_disk.reserve(volume->num_disks());
  for (std::size_t d = 0; d < volume->num_disks(); ++d) {
    const DiskStats& ds = volume->disk(d).stats();
    result.disk_reads += ds.reads;
    result.disk_writes += ds.writes;
    result.mean_disk_queue_depth += ds.queue_depth.mean();
    ReplayResult::DiskBreakdown b;
    b.reads = ds.reads;
    b.writes = ds.writes;
    b.blocks_read = ds.blocks_read;
    b.blocks_written = ds.blocks_written;
    b.sequential_hits = ds.sequential_hits;
    b.busy_ms = to_ms(ds.busy_time);
    b.mean_queue_depth = ds.queue_depth.mean();
    b.mean_seek_cylinders = ds.seek_cylinders.mean();
    result.per_disk.push_back(b);
  }
  result.mean_disk_queue_depth /=
      static_cast<double>(std::max<std::size_t>(1, volume->num_disks()));
  result.volume_counters = volume->counters();

  if (const FaultInjector* fi = volume->fault_injector()) {
    result.fault.enabled = true;
    result.fault.injected = fi->stats();
  }
  if (const MetadataJournal* j = engine->metadata_journal()) {
    result.fault.journal_records = j->appended();
    result.fault.journal_lost = j->lost();
  }

  if (telemetry) {
    telemetry->finish(sim.now());
    result.telemetry_counters = telemetry->metrics().snapshot();
  }
  if (anatomy) result.anatomy = anatomy->take_result();
  return result;
}

}  // namespace pod

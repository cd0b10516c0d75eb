#include "synth/generator.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pod {

namespace {
/// Content ids below this are reserved for the popular pool; fresh unique
/// contents count upward from here.
constexpr std::uint64_t kFreshContentBase = 1ULL << 40;
}  // namespace

TraceGenerator::TraceGenerator(WorkloadProfile profile)
    : profile_(std::move(profile)),
      rng_(profile_.seed),
      history_zipf_(std::max<std::uint64_t>(1, profile_.history_window),
                    profile_.history_theta),
      read_zipf_(std::max<std::uint64_t>(1, profile_.history_window),
                 profile_.read_theta),
      pool_(/*base_id=*/0, profile_.pool_size, profile_.pool_theta),
      burst_(profile_.burst, profile_.write_ratio, profile_.mean_interarrival),
      next_content_(kFreshContentBase) {
  POD_CHECK(profile_.history_window > 0);
  POD_CHECK(profile_.volume_blocks >= 1024);
  POD_CHECK(profile_.mix.unique() >= 0.0);
  history_.resize(profile_.history_window);
}

WriteClass TraceGenerator::pick_class() {
  const double u = rng_.next_double();
  double acc = profile_.mix.full_dup_seq;
  if (u < acc) return WriteClass::kFullDupSeq;
  acc += profile_.mix.full_dup_scatter;
  if (u < acc) return WriteClass::kFullDupScatter;
  acc += profile_.mix.partial_run;
  if (u < acc) return WriteClass::kPartialRun;
  acc += profile_.mix.partial_scatter;
  if (u < acc) return WriteClass::kPartialScatter;
  return WriteClass::kUnique;
}

const TraceGenerator::WriteRecord* TraceGenerator::pick_history(
    Rng& rng, bool clean_only, std::uint32_t min_size) {
  if (history_filled_ == 0) return nullptr;
  const WriteRecord* best = nullptr;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const std::uint64_t rank =
        history_zipf_.sample(rng) % static_cast<std::uint64_t>(history_filled_);
    const std::size_t idx =
        (history_next_ + history_.size() - 1 - static_cast<std::size_t>(rank)) %
        history_.size();
    const WriteRecord* rec = &history_[idx];
    if (clean_only && !rec->clean) continue;
    if (rec->content_ids.size() >= min_size) return rec;
    if (best == nullptr || rec->content_ids.size() > best->content_ids.size())
      best = rec;
  }
  return best;
}

Lba TraceGenerator::alloc_fresh(std::uint32_t nblocks) {
  POD_CHECK(nblocks <= profile_.volume_blocks);
  // Real primary-storage volumes are aged: files/extents land all over the
  // device, which is exactly why small writes are seek-bound (the paper's
  // premise). Extents are internally contiguous but placed at random.
  const Lba max_start = profile_.volume_blocks - nblocks;
  const Lba lba = max_start == 0 ? 0 : rng_.uniform(0, max_start);
  high_water_lba_ = std::max<Lba>(high_water_lba_, lba + nblocks);
  return lba;
}

std::uint64_t TraceGenerator::fresh_content() { return next_content_++; }

void TraceGenerator::remember(Lba lba, const std::vector<std::uint64_t>& ids,
                              bool clean) {
  history_[history_next_] = WriteRecord{lba, ids, clean};
  history_next_ = (history_next_ + 1) % history_.size();
  history_filled_ = std::min(history_filled_ + 1, history_.size());
}

void TraceGenerator::emit_write(Trace& trace, SimTime arrival) {
  IoRequest req;
  req.id = next_id_++;
  req.arrival = arrival;
  req.type = OpType::kWrite;

  WriteClass cls = pick_class();
  const WriteRecord* src = nullptr;
  std::uint32_t dup_want = 0;
  if (cls == WriteClass::kFullDupSeq) {
    dup_want = profile_.full_dup_sizes.sample(rng_);
    src = pick_history(rng_, /*clean_only=*/true, dup_want);
    if (src == nullptr) cls = WriteClass::kUnique;  // cold start
  } else if (cls == WriteClass::kPartialRun) {
    src = pick_history(rng_, /*clean_only=*/true, profile_.partial_run_min);
    if (src == nullptr) cls = WriteClass::kUnique;  // cold start
  }

  std::vector<std::uint64_t>& ids = ids_scratch_;
  ids.clear();
  switch (cls) {
    case WriteClass::kUnique: {
      const std::uint32_t n = profile_.unique_sizes.sample(rng_);
      req.lba = alloc_fresh(n);
      req.nblocks = n;
      ids.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) ids.push_back(fresh_content());
      break;
    }
    case WriteClass::kFullDupSeq: {
      // Replay of a contiguous slice of an earlier request: either an
      // overwrite of the same LBAs with identical content (pure I/O
      // redundancy) or the same data landing elsewhere (capacity
      // redundancy). The replay size is drawn from full_dup_sizes so fully
      // redundant writes skew small (Figure 1) regardless of source size.
      const std::uint32_t src_n =
          static_cast<std::uint32_t>(src->content_ids.size());
      const std::uint32_t n = std::min<std::uint32_t>(dup_want, src_n);
      const std::uint32_t off =
          src_n > n ? static_cast<std::uint32_t>(rng_.uniform(0, src_n - n)) : 0;
      ids.assign(src->content_ids.begin() + off,
                 src->content_ids.begin() + off + n);
      req.nblocks = n;
      req.lba = rng_.chance(profile_.same_lba_frac) ? src->lba + off
                                                    : alloc_fresh(req.nblocks);
      break;
    }
    case WriteClass::kFullDupScatter: {
      const std::uint32_t n = profile_.full_dup_sizes.sample(rng_);
      req.lba = alloc_fresh(n);
      req.nblocks = n;
      ids.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) ids.push_back(pool_.sample(rng_));
      break;
    }
    case WriteClass::kPartialRun: {
      std::uint32_t n = profile_.partial_sizes.sample(rng_);
      n = std::max(n, profile_.partial_run_min + 1);
      req.lba = alloc_fresh(n);
      req.nblocks = n;
      ids.assign(n, 0);
      // A contiguous slice of an earlier request, at least threshold long.
      const std::uint32_t src_n = static_cast<std::uint32_t>(src->content_ids.size());
      std::uint32_t run =
          static_cast<std::uint32_t>(rng_.uniform(profile_.partial_run_min,
                                                  std::max<std::uint64_t>(
                                                      profile_.partial_run_min,
                                                      n - 1)));
      run = std::min(run, src_n);
      if (run < profile_.partial_run_min || run >= n) {
        // Source too short to form a qualifying partial run; degenerate to
        // a fresh-content request with whatever dup prefix fits.
        run = std::min(run, n > 1 ? n - 1 : 0u);
      }
      const std::uint32_t src_off = static_cast<std::uint32_t>(
          rng_.uniform(0, src_n - std::max<std::uint32_t>(run, 1)));
      const std::uint32_t dst_off = static_cast<std::uint32_t>(
          rng_.uniform(0, n - std::max<std::uint32_t>(run, 1)));
      for (std::uint32_t i = 0; i < n; ++i) ids[i] = fresh_content();
      for (std::uint32_t i = 0; i < run; ++i)
        ids[dst_off + i] = src->content_ids[src_off + i];
      break;
    }
    case WriteClass::kPartialScatter: {
      const std::uint32_t n = std::max<std::uint32_t>(
          2, profile_.partial_sizes.sample(rng_));
      req.lba = alloc_fresh(n);
      req.nblocks = n;
      ids.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) ids.push_back(fresh_content());
      // One or two isolated redundant chunks (< category threshold) drawn
      // from the popular pool, scattered within the request.
      const std::uint32_t k = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          rng_.uniform(1, std::min<std::uint64_t>(2, profile_.partial_run_min - 1)),
          n));
      for (std::uint32_t i = 0; i < k; ++i) {
        const std::uint32_t pos = static_cast<std::uint32_t>(rng_.uniform(0, n - 1));
        ids[pos] = pool_.sample(rng_);
      }
      break;
    }
  }

  fps_scratch_.clear();
  fps_scratch_.reserve(ids.size());
  for (std::uint64_t id : ids)
    fps_scratch_.push_back(Fingerprint::of_content_id(id));
  trace.append(req, fps_scratch_);
  // A record is a valid future dup source iff its content sits (or already
  // sat) contiguously on disk: fresh unique extents and full replays of
  // clean records qualify.
  const bool clean =
      cls == WriteClass::kUnique || cls == WriteClass::kFullDupSeq;
  remember(req.lba, ids, clean);
}

void TraceGenerator::emit_read(Trace& trace, SimTime arrival) {
  IoRequest req;
  req.id = next_id_++;
  req.arrival = arrival;
  req.type = OpType::kRead;

  const std::uint32_t want = profile_.read_sizes.sample(rng_);
  const bool cold = rng_.chance(profile_.read_cold_frac) || history_filled_ == 0;
  if (cold && high_water_lba_ > 0) {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(want, high_water_lba_));
    req.lba = rng_.uniform(0, high_water_lba_ - n);
    req.nblocks = n;
    trace.append(req);
    return;
  }
  // Locality read: revisit a recently written extent.
  const std::uint64_t rank =
      read_zipf_.sample(rng_) % std::max<std::uint64_t>(1, history_filled_);
  const std::size_t idx =
      (history_next_ + history_.size() - 1 - static_cast<std::size_t>(rank)) %
      history_.size();
  const WriteRecord& src = history_[idx];
  const std::uint32_t src_n = static_cast<std::uint32_t>(src.content_ids.size());
  const std::uint32_t off =
      src_n > 1 ? static_cast<std::uint32_t>(rng_.uniform(0, src_n - 1)) : 0;
  req.lba = src.lba + off;
  req.nblocks = std::max<std::uint32_t>(1, std::min(want, src_n - off));
  trace.append(req);
}

Trace TraceGenerator::generate() {
  Trace trace;
  trace.name = profile_.name;
  const std::uint64_t total = profile_.warmup_requests + profile_.measured_requests;
  trace.requests.reserve(total);
  trace.warmup_count = profile_.warmup_requests;

  SimTime t = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    t += burst_.next_gap(t, rng_);
    const bool write =
        history_filled_ == 0 || rng_.chance(burst_.write_probability(t));
    if (write) emit_write(trace, t);
    else emit_read(trace, t);
  }
  return trace;
}

Trace generate_paper_trace(const std::string& name, double scale) {
  WorkloadProfile p;
  if (name == "web-vm") p = web_vm_profile(scale);
  else if (name == "homes") p = homes_profile(scale);
  else if (name == "mail") p = mail_profile(scale);
  else POD_CHECK(false && "unknown paper trace name");
  return TraceGenerator(p).generate();
}

}  // namespace pod

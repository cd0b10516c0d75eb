#include "replay/anatomy.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pod {

const char* to_string(LatComp c) {
  switch (c) {
    case LatComp::kQueueWait: return "queue_wait";
    case LatComp::kSeek: return "seek";
    case LatComp::kRotation: return "rotation";
    case LatComp::kTransfer: return "transfer";
    case LatComp::kDedupMeta: return "dedup_meta";
    case LatComp::kRaidReconstruct: return "raid_reconstruct";
    case LatComp::kFaultRetry: return "fault_retry";
    case LatComp::kJournal: return "journal";
  }
  return "?";
}

LatencyAnatomy::LatencyAnatomy(const Config& cfg) : cfg_(cfg) {
  if (cfg_.bucketed)
    for (LatencyRecorder& r : comp_) r.set_bucketed();
  tail_.reserve(cfg_.tail_k);
}

AnatomyResult::StreamStats& LatencyAnatomy::stream_slot(std::uint32_t stream) {
  // Fast path: consecutive requests usually belong to the same stream.
  if (last_stream_slot_ < streams_.size() &&
      streams_[last_stream_slot_].stream == stream)
    return streams_[last_stream_slot_];
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].stream == stream) {
      last_stream_slot_ = i;
      return streams_[i];
    }
  }
  streams_.emplace_back();
  streams_.back().stream = stream;
  if (cfg_.bucketed) streams_.back().latency.set_bucketed();
  last_stream_slot_ = streams_.size() - 1;
  return streams_.back();
}

void LatencyAnatomy::record_request(std::uint64_t req_id, std::uint32_t stream,
                                    OpType type, std::uint32_t nblocks,
                                    SimTime submit, Duration latency,
                                    std::uint64_t dedup_hits, bool failed,
                                    const LatBreakdown& b) {
  // The exact-sum invariant: every nanosecond of the response time was
  // charged to exactly one component. DCHECK for debug builds; the counter
  // keeps release/CI builds honest (tests assert it is 0).
  POD_DCHECK(b.total() == latency);
  if (b.total() != latency) ++sum_mismatches_;

  ++requests_;
  for (std::size_t i = 0; i < kNumLatComps; ++i) {
    total_[i] += b.comp[i];
    comp_[i].add(b.comp[i]);
  }

  AnatomyResult::StreamStats& s = stream_slot(stream);
  if (type == OpType::kWrite) {
    ++s.writes;
    s.write_blocks += nblocks;
  } else {
    ++s.reads;
    s.read_blocks += nblocks;
  }
  s.dedup_hits += dedup_hits;
  if (failed) ++s.failed_requests;
  s.latency.add(latency);

  if (cfg_.tail_k == 0) return;
  const auto slower = [](const AnatomyResult::TailEntry& a,
                         const AnatomyResult::TailEntry& b2) {
    if (a.latency != b2.latency) return a.latency > b2.latency;
    return a.req_id < b2.req_id;
  };
  if (tail_.size() == cfg_.tail_k) {
    // tail_[0] is the least-slow retained entry (ties keep the earlier
    // request id — the same ordering `slower` encodes).
    const AnatomyResult::TailEntry& floor = tail_.front();
    if (!(latency > floor.latency ||
          (latency == floor.latency && req_id < floor.req_id)))
      return;
    std::pop_heap(tail_.begin(), tail_.end(), slower);
    tail_.pop_back();
  }
  tail_.push_back(AnatomyResult::TailEntry{req_id, stream, type, nblocks,
                                           submit, latency, b});
  std::push_heap(tail_.begin(), tail_.end(), slower);
}

AnatomyResult LatencyAnatomy::take_result() {
  AnatomyResult r;
  r.enabled = true;
  r.requests = requests_;
  r.sum_mismatches = sum_mismatches_;
  r.total = total_;
  r.comp = std::move(comp_);
  r.streams = std::move(streams_);
  std::sort(r.streams.begin(), r.streams.end(),
            [](const AnatomyResult::StreamStats& a,
               const AnatomyResult::StreamStats& b) {
              return a.stream < b.stream;
            });
  r.tail = std::move(tail_);
  std::sort(r.tail.begin(), r.tail.end(),
            [](const AnatomyResult::TailEntry& a,
               const AnatomyResult::TailEntry& b) {
              if (a.latency != b.latency) return a.latency > b.latency;
              return a.req_id < b.req_id;
            });
  r.tail_k = cfg_.tail_k;
  return r;
}

}  // namespace pod

#include "engine_test_util.hpp"
#include "test_options.hpp"

namespace pod::testutil {

EngineConfig small_engine_config() {
  EngineConfig cfg;
  cfg.logical_blocks = 16 * 1024;  // 64 MiB logical
  cfg.memory_bytes = 2 * kMiB;
  cfg.index_region_blocks = 1024;
  cfg.swap_region_blocks = 1024;
  return cfg;
}

OwnedRequest make_write(Lba lba, const std::vector<std::uint64_t>& content_ids,
                        SimTime arrival) {
  IoRequest r;
  r.arrival = arrival;
  r.type = OpType::kWrite;
  r.lba = lba;
  r.nblocks = static_cast<std::uint32_t>(content_ids.size());
  std::vector<Fingerprint> fps;
  fps.reserve(content_ids.size());
  for (std::uint64_t id : content_ids)
    fps.push_back(Fingerprint::of_content_id(id));
  return OwnedRequest(r, std::move(fps));
}

IoRequest make_read(Lba lba, std::uint32_t nblocks, SimTime arrival) {
  IoRequest r;
  r.arrival = arrival;
  r.type = OpType::kRead;
  r.lba = lba;
  r.nblocks = nblocks;
  return r;
}

EngineHarness::EngineHarness(EngineKind kind, EngineConfig cfg, RaidLevel raid) {
  RunSpec spec = test_spec();
  spec.engine = kind;
  spec.raid = raid;
  spec.engine_cfg = cfg;
  volume_ = make_volume(sim_, spec);
  engine_ = make_engine(sim_, *volume_, spec);
}

Duration EngineHarness::run(const IoRequest& req) {
  const SimTime start = sim_.now();
  Duration latency = -1;
  engine_->submit(req, [this, start, &latency]() { latency = sim_.now() - start; });
  sim_.run();
  return latency;
}

Duration EngineHarness::write(Lba lba, const std::vector<std::uint64_t>& ids) {
  return run(make_write(lba, ids));
}

Duration EngineHarness::read(Lba lba, std::uint32_t nblocks) {
  return run(make_read(lba, nblocks));
}

void EngineHarness::warm_write(Lba lba, const std::vector<std::uint64_t>& ids) {
  engine_->warm(make_write(lba, ids));
}

std::uint64_t EngineHarness::disk_ops() const {
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < volume_->num_disks(); ++d) {
    const DiskStats& s = volume_->disk(d).stats();
    total += s.reads + s.writes;
  }
  return total;
}

std::uint64_t EngineHarness::disk_data_writes() const {
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < volume_->num_disks(); ++d)
    total += volume_->disk(d).stats().writes;
  return total;
}

}  // namespace pod::testutil

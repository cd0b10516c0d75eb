#include "trace/trace_io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "hash/fnv.hpp"

namespace pod {

namespace {

// PODTRC04: a u64 FNV-1a checksum of every body byte after the checksum
// field, then structure-of-arrays — fixed-size request records followed by
// one contiguous fingerprint blob, loaded straight into the trace arena.
// The checksum detects silent cache-file corruption (the trace cache falls
// back to regeneration on mismatch). The binary form is a regenerable
// cache, so older versions (PODTRC01-03) are rejected rather than read.
constexpr char kBinaryMagic[8] = {'P', 'O', 'D', 'T', 'R', 'C', '0', '4'};

/// Streaming FNV-1a accumulator: both the writer and the reader feed the
/// body byte sequences through this in identical order, so the stored and
/// recomputed sums agree iff every body byte round-tripped.
struct BodyChecksum {
  std::uint64_t h = kFnvOffset;
  void feed(const void* data, std::size_t len) {
    h = fnv1a64(static_cast<const std::uint8_t*>(data), len, h);
  }
  template <typename T>
  void feed_pod(const T& v) {
    feed(&v, sizeof(v));
  }
};

/// Fixed-size on-disk request record.
#pragma pack(push, 1)
struct DiskRecord {
  SimTime arrival;
  std::uint8_t type;
  Lba lba;
  std::uint32_t nblocks;
  std::uint32_t stream;
  std::uint32_t nfp;
};
#pragma pack(pop)
static_assert(sizeof(DiskRecord) == 29);

std::string hex16(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kHex[v & 0xF];
    v >>= 4;
  }
  return s;
}

std::uint64_t parse_hex16(const std::string& s) {
  if (s.size() != 16) throw std::runtime_error("bad fingerprint field: " + s);
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw std::runtime_error("bad hex digit in fingerprint: " + s);
  }
  return v;
}

template <typename T>
T parse_uint(const std::string& s) {
  T v{};
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end)
    throw std::runtime_error("bad numeric field: " + s);
  return v;
}

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated binary trace");
  return v;
}

OpType op_from_byte(std::uint8_t b) {
  if (b != static_cast<std::uint8_t>(OpType::kRead) &&
      b != static_cast<std::uint8_t>(OpType::kWrite))
    throw std::runtime_error("bad op byte in binary trace");
  return static_cast<OpType>(b);
}

/// Body: bulk-read request records, then the fingerprint arena in one
/// contiguous read; spans are assigned by walking per-request counts. Every
/// body byte is fed through `ck` in read order.
Trace read_trace_body(std::istream& in, BodyChecksum& ck) {
  Trace trace;
  const auto name_len = read_pod<std::uint32_t>(in);
  if (name_len > (1u << 20))
    throw std::runtime_error("implausible trace name length");
  trace.name.resize(name_len);
  in.read(trace.name.data(), name_len);
  if (!in) throw std::runtime_error("truncated binary trace");
  const auto count = read_pod<std::uint64_t>(in);
  trace.warmup_count = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  const auto total_fps = read_pod<std::uint64_t>(in);
  ck.feed_pod(name_len);
  ck.feed(trace.name.data(), name_len);
  ck.feed_pod(count);
  ck.feed_pod(static_cast<std::uint64_t>(trace.warmup_count));
  ck.feed_pod(total_fps);
  if (trace.warmup_count > count) throw std::runtime_error("bad warmup count");

  // Bound the bulk allocations by the bytes actually left in the stream —
  // a corrupted count must surface as "truncated", not as a giant alloc.
  const auto body_pos = in.tellg();
  if (body_pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end_pos = in.tellg();
    in.seekg(body_pos);
    if (end_pos != std::istream::pos_type(-1)) {
      const auto remaining =
          static_cast<std::uint64_t>(end_pos - body_pos);
      if (count > remaining / sizeof(DiskRecord) ||
          total_fps > remaining / sizeof(Fingerprint))
        throw std::runtime_error("truncated binary trace");
    }
  }

  std::vector<DiskRecord> records(count);
  in.read(reinterpret_cast<char*>(records.data()),
          static_cast<std::streamsize>(count * sizeof(DiskRecord)));
  if (!in) throw std::runtime_error("truncated binary trace");
  ck.feed(records.data(), count * sizeof(DiskRecord));

  trace.arena().reserve(total_fps);
  const std::span<Fingerprint> arena = trace.arena().alloc(total_fps);
  in.read(reinterpret_cast<char*>(arena.data()),
          static_cast<std::streamsize>(arena.size_bytes()));
  if (!in) throw std::runtime_error("truncated binary trace");
  ck.feed(arena.data(), arena.size_bytes());

  trace.requests.reserve(count);
  std::uint64_t offset = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const DiskRecord& rec = records[i];
    IoRequest r;
    r.id = i;
    r.arrival = rec.arrival;
    r.type = op_from_byte(rec.type);
    r.lba = rec.lba;
    r.nblocks = rec.nblocks;
    r.stream = rec.stream;
    if (r.nblocks == 0) throw std::runtime_error("zero-length request");
    if (r.is_write() && rec.nfp != rec.nblocks)
      throw std::runtime_error("write fingerprint count != nblocks");
    if (r.is_read() && rec.nfp != 0)
      throw std::runtime_error("read request carries fingerprints");
    if (offset + rec.nfp > total_fps)
      throw std::runtime_error("fingerprint blob overrun");
    r.chunks = arena.subspan(offset, rec.nfp);
    offset += rec.nfp;
    trace.requests.push_back(r);
  }
  if (offset != total_fps)
    throw std::runtime_error("fingerprint blob underrun");
  return trace;
}

}  // namespace

void write_trace_csv(std::ostream& out, const Trace& trace) {
  out << "# pod-trace name=" << trace.name
      << " requests=" << trace.requests.size()
      << " warmup=" << trace.warmup_count << "\n";
  for (const IoRequest& r : trace.requests) {
    out << r.arrival << ',' << (r.is_write() ? 'W' : 'R') << ',' << r.lba << ','
        << r.nblocks;
    // Optional stream token: `s<id>`, unambiguous against the 16-hex-digit
    // fingerprint tokens ('s' is not a hex digit). Omitted for the default
    // stream so pre-existing traces round-trip byte-identically.
    if (r.stream != 0) out << ",s" << r.stream;
    for (const Fingerprint& fp : r.chunks) out << ',' << hex16(fp.prefix64());
    out << '\n';
  }
}

Trace read_trace_csv(std::istream& in, std::string name) {
  Trace trace;
  trace.name = std::move(name);
  std::string line;
  std::uint64_t next_id = 0;
  std::vector<Fingerprint> scratch;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Header comment: recover name/warmup if present.
      const auto npos = line.find("name=");
      if (npos != std::string::npos) {
        const auto end = line.find(' ', npos);
        trace.name = line.substr(npos + 5, end - npos - 5);
      }
      const auto wpos = line.find("warmup=");
      if (wpos != std::string::npos)
        trace.warmup_count = parse_uint<std::size_t>(line.substr(wpos + 7));
      continue;
    }
    std::stringstream ss(line);
    std::string field;
    IoRequest r;
    r.id = next_id++;
    if (!std::getline(ss, field, ',')) throw std::runtime_error("missing timestamp");
    r.arrival = parse_uint<SimTime>(field);
    if (!std::getline(ss, field, ',') || field.size() != 1)
      throw std::runtime_error("missing op field");
    if (field[0] == 'W' || field[0] == 'w') r.type = OpType::kWrite;
    else if (field[0] == 'R' || field[0] == 'r') r.type = OpType::kRead;
    else throw std::runtime_error("bad op field: " + field);
    if (!std::getline(ss, field, ',')) throw std::runtime_error("missing lba");
    r.lba = parse_uint<Lba>(field);
    if (!std::getline(ss, field, ',')) throw std::runtime_error("missing nblocks");
    r.nblocks = parse_uint<std::uint32_t>(field);
    if (r.nblocks == 0) throw std::runtime_error("zero-length request");
    scratch.clear();
    bool first_tail_field = true;
    while (std::getline(ss, field, ',')) {
      if (first_tail_field && field.size() > 1 && field[0] == 's') {
        r.stream = parse_uint<std::uint32_t>(field.substr(1));
        first_tail_field = false;
        continue;
      }
      first_tail_field = false;
      scratch.push_back(Fingerprint::of_prefix(parse_hex16(field)));
    }
    if (r.is_write() && scratch.size() != r.nblocks)
      throw std::runtime_error("write fingerprint count != nblocks");
    if (r.is_read() && !scratch.empty())
      throw std::runtime_error("read request carries fingerprints");
    trace.append(r, scratch);
  }
  if (trace.warmup_count > trace.requests.size())
    throw std::runtime_error("warmup count exceeds request count");
  return trace;
}

void write_trace_binary(std::ostream& out, const Trace& trace) {
  const std::uint32_t name_len = static_cast<std::uint32_t>(trace.name.size());
  const std::uint64_t count = trace.requests.size();
  const std::uint64_t warmup = trace.warmup_count;
  std::uint64_t total_fps = 0;
  for (const IoRequest& r : trace.requests) total_fps += r.chunks.size();

  std::vector<DiskRecord> records;
  records.reserve(trace.requests.size());
  for (const IoRequest& r : trace.requests) {
    records.push_back(DiskRecord{r.arrival, static_cast<std::uint8_t>(r.type),
                                 r.lba, r.nblocks, r.stream,
                                 static_cast<std::uint32_t>(r.chunks.size())});
  }

  // Checksum the body without buffering it: feed exactly the byte sequence
  // written below, in the same order.
  BodyChecksum ck;
  ck.feed_pod(name_len);
  ck.feed(trace.name.data(), name_len);
  ck.feed_pod(count);
  ck.feed_pod(warmup);
  ck.feed_pod(total_fps);
  ck.feed(records.data(), records.size() * sizeof(DiskRecord));
  for (const IoRequest& r : trace.requests)
    ck.feed(r.chunks.data(), r.chunks.size_bytes());

  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  write_pod(out, ck.h);
  write_pod(out, name_len);
  out.write(trace.name.data(), name_len);
  write_pod(out, count);
  write_pod(out, warmup);
  write_pod(out, total_fps);
  out.write(reinterpret_cast<const char*>(records.data()),
            static_cast<std::streamsize>(records.size() * sizeof(DiskRecord)));
  // Fingerprint blob, in request order (== arena order for traces built
  // append-only, but written from the spans so any layout serializes
  // correctly).
  for (const IoRequest& r : trace.requests) {
    out.write(reinterpret_cast<const char*>(r.chunks.data()),
              static_cast<std::streamsize>(r.chunks.size_bytes()));
  }
}

Trace read_trace_binary(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0)
    throw std::runtime_error("not a pod binary trace");
  const auto stored = read_pod<std::uint64_t>(in);
  BodyChecksum ck;
  Trace trace = read_trace_body(in, ck);
  if (ck.h != stored) throw std::runtime_error("binary trace checksum mismatch");
  return trace;
}

namespace {
std::ifstream open_in(const std::string& path, std::ios::openmode mode) {
  std::ifstream in(path, mode);
  if (!in) throw std::runtime_error("cannot open " + path);
  return in;
}
std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream out(path, mode);
  if (!out) throw std::runtime_error("cannot open " + path);
  return out;
}
}  // namespace

void save_trace_csv(const std::string& path, const Trace& trace) {
  auto out = open_out(path, std::ios::out);
  write_trace_csv(out, trace);
}

Trace load_trace_csv(const std::string& path) {
  auto in = open_in(path, std::ios::in);
  return read_trace_csv(in, path);
}

void save_trace_binary(const std::string& path, const Trace& trace) {
  auto out = open_out(path, std::ios::out | std::ios::binary);
  write_trace_binary(out, trace);
  if (!out) throw std::runtime_error("short write to " + path);
}

Trace load_trace_binary(const std::string& path) {
  auto in = open_in(path, std::ios::in | std::ios::binary);
  return read_trace_binary(in);
}

}  // namespace pod

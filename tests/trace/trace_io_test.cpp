#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "synth/generator.hpp"
#include "trace/trace_cache.hpp"

namespace pod {
namespace {

Trace sample_trace() {
  Trace t;
  t.name = "sample";
  IoRequest w;
  w.id = 0;
  w.arrival = 1000;
  w.type = OpType::kWrite;
  w.lba = 64;
  w.nblocks = 2;
  const Fingerprint fps[] = {Fingerprint::of_content_id(11),
                             Fingerprint::of_content_id(22)};
  t.append(w, fps);

  IoRequest r;
  r.id = 1;
  r.arrival = 2000;
  r.type = OpType::kRead;
  r.lba = 64;
  r.nblocks = 2;
  t.append(r);
  t.warmup_count = 1;
  return t;
}

void expect_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  EXPECT_EQ(a.warmup_count, b.warmup_count);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const IoRequest& x = a.requests[i];
    const IoRequest& y = b.requests[i];
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.lba, y.lba);
    EXPECT_EQ(x.nblocks, y.nblocks);
    EXPECT_EQ(x.stream, y.stream);
    ASSERT_EQ(x.chunks.size(), y.chunks.size());
    for (std::size_t c = 0; c < x.chunks.size(); ++c)
      EXPECT_EQ(x.chunks[c], y.chunks[c]);
  }
}

TEST(TraceIo, CsvRoundTrip) {
  const Trace t = sample_trace();
  std::stringstream ss;
  write_trace_csv(ss, t);
  const Trace back = read_trace_csv(ss);
  EXPECT_EQ(back.name, "sample");
  expect_equal(t, back);
}

TEST(TraceIo, BinaryRoundTrip) {
  const Trace t = sample_trace();
  std::stringstream ss;
  write_trace_binary(ss, t);
  const Trace back = read_trace_binary(ss);
  EXPECT_EQ(back.name, "sample");
  expect_equal(t, back);
}

TEST(TraceIo, CsvHumanReadable) {
  std::stringstream ss;
  write_trace_csv(ss, sample_trace());
  const std::string text = ss.str();
  EXPECT_NE(text.find("1000,W,64,2,"), std::string::npos);
  EXPECT_NE(text.find("2000,R,64,2"), std::string::npos);
}

TEST(TraceIo, CsvRejectsBadOp) {
  std::stringstream ss("1000,X,1,1\n");
  EXPECT_THROW(read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvRejectsZeroLength) {
  std::stringstream ss("1000,R,1,0\n");
  EXPECT_THROW(read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvRejectsFingerprintCountMismatch) {
  std::stringstream ss("1000,W,1,2,00000000000000aa\n");
  EXPECT_THROW(read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvRejectsFingerprintsOnReads) {
  std::stringstream ss("1000,R,1,1,00000000000000aa\n");
  EXPECT_THROW(read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvRejectsGarbageNumbers) {
  std::stringstream ss("abc,R,1,1\n");
  EXPECT_THROW(read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvSkipsBlankLines) {
  std::stringstream ss("\n1000,R,1,1\n\n");
  const Trace t = read_trace_csv(ss);
  EXPECT_EQ(t.requests.size(), 1u);
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  std::stringstream ss("NOTATRACE");
  EXPECT_THROW(read_trace_binary(ss), std::runtime_error);
}

TEST(TraceIo, BinaryRejectsTruncation) {
  const Trace t = sample_trace();
  std::stringstream full;
  write_trace_binary(full, t);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(read_trace_binary(truncated), std::runtime_error);
}

TEST(TraceIo, BinaryWritesChecksummedV4) {
  std::stringstream ss;
  write_trace_binary(ss, sample_trace());
  EXPECT_EQ(ss.str().substr(0, 8), "PODTRC04");
}

TEST(TraceIo, BinaryDetectsSingleFlippedByte) {
  const Trace t = sample_trace();
  std::stringstream full;
  write_trace_binary(full, t);
  const std::string bytes = full.str();
  // Flip one byte in every body position (past magic + checksum); each
  // corruption must be caught. Flips inside the 8-byte stored checksum are
  // caught too (stored != recomputed).
  for (std::size_t pos = 8; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::stringstream in(corrupt);
    EXPECT_THROW(read_trace_binary(in), std::runtime_error) << "pos " << pos;
  }
}

TEST(TraceIo, BinaryRejectsLegacyVersionsSoTheCacheRegenerates) {
  // Only PODTRC04 is read. An older cache entry fails like any non-trace
  // file, so the trace cache treats it as a miss and regenerates it.
  WorkloadProfile p = tiny_test_profile();
  p.warmup_requests = 100;
  p.measured_requests = 200;
  const Trace generated = TraceGenerator(p).generate();
  const std::string dir = testing::TempDir() + "/pod_trace_io_legacy";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(store_cached_trace(dir, p, generated));
  const std::string path = trace_cache_path(dir, p);
  for (const char* magic : {"PODTRC01", "PODTRC02", "PODTRC03"}) {
    SCOPED_TRACE(magic);
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.write(magic, 8);
    }
    try {
      (void)load_trace_binary(path);
      ADD_FAILURE() << "legacy trace was read";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "not a pod binary trace");
    }
    EXPECT_FALSE(try_load_cached_trace(dir, p).has_value());
    const Trace regenerated = obtain_trace(p, dir);
    expect_equal(generated, regenerated);
    EXPECT_EQ(regenerated.name, generated.name);
  }
}

TEST(TraceIo, StreamIdRoundTripsBinaryAndCsv) {
  Trace t = sample_trace();
  t.requests[0].stream = 7;
  t.requests[1].stream = 42;

  std::stringstream bin;
  write_trace_binary(bin, t);
  expect_equal(t, read_trace_binary(bin));

  std::stringstream csv;
  write_trace_csv(csv, t);
  const std::string text = csv.str();
  // The stream token sits between nblocks and the fingerprints.
  EXPECT_NE(text.find("1000,W,64,2,s7,"), std::string::npos);
  EXPECT_NE(text.find("2000,R,64,2,s42"), std::string::npos);
  expect_equal(t, read_trace_csv(csv));
}

TEST(TraceIo, DefaultStreamOmittedFromCsv) {
  std::stringstream csv;
  write_trace_csv(csv, sample_trace());
  EXPECT_EQ(csv.str().find(",s"), std::string::npos);
}

TEST(TraceIo, FileRoundTrip) {
  const Trace t = sample_trace();
  const std::string path = testing::TempDir() + "/pod_trace_test.bin";
  save_trace_binary(path, t);
  const Trace back = load_trace_binary(path);
  expect_equal(t, back);

  const std::string csv_path = testing::TempDir() + "/pod_trace_test.csv";
  save_trace_csv(csv_path, t);
  const Trace back_csv = load_trace_csv(csv_path);
  expect_equal(t, back_csv);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_binary("/nonexistent/path/x.bin"), std::runtime_error);
  EXPECT_THROW(load_trace_csv("/nonexistent/path/x.csv"), std::runtime_error);
}

TEST(TraceIo, WarmupCountPreserved) {
  Trace t = sample_trace();
  t.warmup_count = 2;
  std::stringstream ss;
  write_trace_csv(ss, t);
  EXPECT_EQ(read_trace_csv(ss).warmup_count, 2u);
}

}  // namespace
}  // namespace pod

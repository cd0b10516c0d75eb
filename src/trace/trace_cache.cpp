#include "trace/trace_cache.hpp"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/thread_pool.hpp"
#include "hash/fnv.hpp"
#include "synth/generator.hpp"
#include "trace/trace_io.hpp"

namespace pod {

namespace {

void put_u64(std::ostringstream& os, std::uint64_t v) { os << v << ';'; }

void put_double(std::ostringstream& os, double v) {
  // Hexfloat round-trips exactly: two profiles hash equal iff their fields
  // are bit-identical.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a;", v);
  os << buf;
}

void put_dist(std::ostringstream& os, const SizeDist& d) {
  os << "d[";
  for (const auto& [blocks, weight] : d.entries()) {
    put_u64(os, blocks);
    put_double(os, weight);
  }
  os << ']';
}

/// Canonical serialization of every field the generator consumes.
std::string canonical_profile(const WorkloadProfile& p) {
  std::ostringstream os;
  os << "gen" << kTraceCacheGenVersion << ';' << p.name << ';';
  put_u64(os, p.seed);
  put_u64(os, p.measured_requests);
  put_u64(os, p.warmup_requests);
  put_double(os, p.write_ratio);
  put_dist(os, p.unique_sizes);
  put_dist(os, p.full_dup_sizes);
  put_dist(os, p.partial_sizes);
  put_dist(os, p.read_sizes);
  put_double(os, p.mix.full_dup_seq);
  put_double(os, p.mix.full_dup_scatter);
  put_double(os, p.mix.partial_run);
  put_double(os, p.mix.partial_scatter);
  put_double(os, p.same_lba_frac);
  put_u64(os, p.volume_blocks);
  put_double(os, p.history_theta);
  put_u64(os, p.history_window);
  put_u64(os, p.pool_size);
  put_double(os, p.pool_theta);
  put_double(os, p.read_theta);
  put_double(os, p.read_cold_frac);
  put_u64(os, static_cast<std::uint64_t>(p.mean_interarrival));
  put_u64(os, static_cast<std::uint64_t>(p.burst.cycle));
  put_double(os, p.burst.write_phase_frac);
  put_double(os, p.burst.write_phase_bias);
  put_double(os, p.burst.write_phase_rate_mult);
  put_u64(os, p.partial_run_min);
  return os.str();
}

std::string hex16(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kHex[v & 0xF];
    v >>= 4;
  }
  return s;
}

}  // namespace

std::string trace_cache_key(const WorkloadProfile& profile) {
  const std::string canon = canonical_profile(profile);
  const std::uint64_t h = fnv1a64(
      reinterpret_cast<const std::uint8_t*>(canon.data()), canon.size());
  return profile.name + "-" + hex16(h) + ".podtrc";
}

std::string trace_cache_path(const std::string& dir,
                             const WorkloadProfile& profile) {
  return (std::filesystem::path(dir) / trace_cache_key(profile)).string();
}

std::optional<Trace> try_load_cached_trace(const std::string& dir,
                                           const WorkloadProfile& profile) {
  if (dir.empty()) return std::nullopt;
  const std::string path = trace_cache_path(dir, profile);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    return load_trace_binary(path);
  } catch (const std::exception& e) {
    // Corrupt or truncated entry: regenerate rather than fail the run.
    std::fprintf(stderr, "[trace-cache] ignoring unreadable %s (%s)\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
}

bool store_cached_trace(const std::string& dir,
                        const WorkloadProfile& profile, const Trace& trace) {
  if (dir.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = trace_cache_path(dir, profile);
  // Unique temp name per process so concurrent benches never interleave
  // writes; rename() makes the publish atomic on POSIX.
  std::ostringstream tmp;
#if defined(__unix__) || defined(__APPLE__)
  tmp << path << ".tmp." << ::getpid();
#else
  tmp << path << ".tmp";
#endif
  try {
    save_trace_binary(tmp.str(), trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[trace-cache] cannot write %s (%s)\n",
                 tmp.str().c_str(), e.what());
    std::remove(tmp.str().c_str());
    return false;
  }
  if (std::rename(tmp.str().c_str(), path.c_str()) != 0) {
    std::remove(tmp.str().c_str());
    return false;
  }
  return true;
}

Trace obtain_trace(const WorkloadProfile& profile,
                   const std::string& cache_dir) {
  if (std::optional<Trace> cached = try_load_cached_trace(cache_dir, profile))
    return std::move(*cached);
  Trace trace = TraceGenerator(profile).generate();
  if (!cache_dir.empty()) store_cached_trace(cache_dir, profile, trace);
  return trace;
}

std::vector<Trace> obtain_traces(const std::vector<WorkloadProfile>& profiles,
                                 std::size_t jobs,
                                 const std::string& cache_dir) {
  std::vector<Trace> out(profiles.size());
  if (profiles.size() <= 1 || jobs <= 1) {
    for (std::size_t i = 0; i < profiles.size(); ++i)
      out[i] = obtain_trace(profiles[i], cache_dir);
    return out;
  }
  std::vector<std::exception_ptr> errors(profiles.size());
  ThreadPool pool(jobs > profiles.size() ? profiles.size() : jobs);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    pool.submit([&, i] {
      try {
        out[i] = obtain_trace(profiles[i], cache_dir);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  for (std::exception_ptr& err : errors)
    if (err) std::rethrow_exception(err);
  return out;
}

}  // namespace pod

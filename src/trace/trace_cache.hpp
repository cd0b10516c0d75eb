// Persistent trace cache.
//
// Generating a multi-million-request synthetic trace costs far more than
// replaying it, and every bench binary regenerates the same traces from
// scratch. Given a cache directory, generated traces are serialized there
// in the binary PODTRC format and later runs load them with a bulk read
// straight into the trace's fingerprint arena.
//
// Cache key: "<profile-name>-<16-hex FNV-1a of a canonical serialization
// of every generator-relevant profile field>.podtrc". The hash covers
// request counts, seed, size distributions, class mix, burst shape, etc.,
// so the same name at a different scale (or after a profile tweak)
// never aliases. A generator-behaviour version tag is mixed in; bump
// kTraceCacheGenVersion whenever TraceGenerator's output changes for
// identical profiles.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "synth/profile.hpp"
#include "trace/request.hpp"

namespace pod {

/// Bump when TraceGenerator output changes for an unchanged profile.
inline constexpr int kTraceCacheGenVersion = 1;

/// File name (key) for a profile: name + param-hash, no directory.
std::string trace_cache_key(const WorkloadProfile& profile);

/// Full path for a profile under `dir`.
std::string trace_cache_path(const std::string& dir,
                             const WorkloadProfile& profile);

/// Loads the cached trace for `profile` from `dir` if present and
/// readable; nullopt on miss. A corrupt cache entry is treated as a miss
/// (it will be regenerated and rewritten), not an error.
std::optional<Trace> try_load_cached_trace(const std::string& dir,
                                           const WorkloadProfile& profile);

/// Atomically writes `trace` into the cache (temp file + rename), creating
/// `dir` if needed. Best-effort: failures are reported by return value.
bool store_cached_trace(const std::string& dir,
                        const WorkloadProfile& profile, const Trace& trace);

/// One-stop: cached load from `cache_dir` on a hit, otherwise generate
/// (and populate the cache). An empty `cache_dir` disables caching.
Trace obtain_trace(const WorkloadProfile& profile,
                   const std::string& cache_dir);

/// Generates (or cache-loads) every profile's trace, fanning uncached
/// generation across `jobs` ThreadPool workers. Results are returned in
/// input order. With jobs <= 1 this degenerates to a serial loop.
std::vector<Trace> obtain_traces(const std::vector<WorkloadProfile>& profiles,
                                 std::size_t jobs,
                                 const std::string& cache_dir);

}  // namespace pod

// Fans independent replay runs across a ThreadPool.
//
// Each run owns a fresh Simulator, Volume and engine, so runs share no
// mutable state and per-config results are byte-identical whether executed
// serially or in parallel — only wall-clock changes. Traces are shared
// read-only and must be fully generated before run() is called (the bench
// trace memo is not thread-safe to populate concurrently).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "replay/metrics.hpp"
#include "replay/replayer.hpp"
#include "trace/request.hpp"

namespace pod {

class ParallelRunner {
 public:
  /// One fan-out unit: a run spec plus the (pre-generated) trace to replay.
  struct RunItem {
    RunSpec spec;
    const Trace* trace = nullptr;
    /// Optional human-readable tag carried into error messages; defaults to
    /// "engine/trace" when empty.
    std::string label;
  };

  /// @param jobs  worker threads; <= 1 executes serially on this thread.
  explicit ParallelRunner(std::size_t jobs) : jobs_(jobs) {}

  /// Executes every item and returns results in input order. The first
  /// exception thrown by any run (in input order) is rethrown as a
  /// std::runtime_error prefixed with that run's label and fault seed, so a
  /// failure inside a large fan-out identifies its run. Items with a null
  /// trace are rejected up front with std::invalid_argument.
  std::vector<ReplayResult> run(const std::vector<RunItem>& items) const;

  std::size_t jobs() const { return jobs_; }

 private:
  std::size_t jobs_;
};

}  // namespace pod

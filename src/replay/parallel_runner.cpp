#include "replay/parallel_runner.hpp"

#include <exception>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"

namespace pod {

namespace {

std::string item_label(const ParallelRunner::RunItem& item, std::size_t i) {
  if (!item.label.empty()) return item.label;
  std::string label = to_string(item.spec.engine);
  label += '/';
  label += item.trace != nullptr ? item.trace->name
                                 : "item#" + std::to_string(i);
  return label;
}

/// Rethrown worker failures keep their message but gain the run's identity:
/// in a 100-run fan-out, "trace not time-ordered" alone does not say which
/// spec to re-run.
[[noreturn]] void rethrow_labeled(std::exception_ptr err,
                                  const ParallelRunner::RunItem& item,
                                  std::size_t i) {
  std::string prefix = "run \"" + item_label(item, i) + "\" (fault seed " +
                       std::to_string(item.spec.array_cfg.fault.seed) + "): ";
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    throw std::runtime_error(prefix + e.what());
  } catch (...) {
    throw std::runtime_error(prefix + "unknown exception");
  }
}

}  // namespace

std::vector<ReplayResult> ParallelRunner::run(
    const std::vector<RunItem>& items) const {
  for (std::size_t i = 0; i < items.size(); ++i)
    if (items[i].trace == nullptr)
      throw std::invalid_argument("ParallelRunner: item \"" +
                                  item_label(items[i], i) +
                                  "\" has a null trace");

  std::vector<ReplayResult> results(items.size());
  std::vector<std::exception_ptr> errors(items.size());

  // Clamp to [1, items]: a ParallelRunner(0) must degrade to serial
  // execution, not submit work to a pool that nothing drains.
  std::size_t jobs = jobs_ > items.size() ? items.size() : jobs_;
  if (jobs == 0) jobs = 1;
  ThreadPool pool(jobs);
  for (std::size_t i = 0; i < items.size(); ++i) {
    pool.submit([&, i] {
      try {
        results[i] = run_replay(items[i].spec, *items[i].trace);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool.wait_idle();

  for (std::size_t i = 0; i < errors.size(); ++i)
    if (errors[i]) rethrow_labeled(errors[i], items[i], i);
  return results;
}

}  // namespace pod

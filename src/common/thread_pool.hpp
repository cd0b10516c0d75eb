// Fixed-size worker pool for fanning out independent simulations.
//
// Deliberately work-stealing-free: tasks are claimed in submission order
// from one mutex-protected queue, and every task is fully independent (its
// own Simulator, engine and metrics), so the pool introduces no ordering
// effects on results — parallel runs are byte-identical to serial ones.
//
// A pool of size <= 1 executes tasks inline on submit (no worker threads
// at all), which keeps single-job runs strictly deterministic in stderr
// interleaving and free of threading overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pod {

class ThreadPool {
 public:
  /// @param threads  number of workers; 0 and 1 both mean "run inline".
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (0 when tasks run inline on the calling thread).
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. With no workers the task runs before submit returns.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace pod

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "test_options.hpp"

namespace pod {
namespace {

TEST(ThreadPool, InlineModeRunsOnSubmit) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> order;
  pool.submit([&] { order.push_back(1); });
  // Inline mode executes before submit returns; nothing is pending.
  EXPECT_EQ(order, (std::vector<int>{1}));
  pool.wait_idle();
}

TEST(ThreadPool, SingleJobAlsoInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ReusableAfterWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  pool.submit([&] { ++count; });
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
  }
  EXPECT_EQ(count.load(), 50);
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// POD_JOBS, the replay fan-out, is parsed by the knob parser and capped at
// the hardware thread count.
TEST(ThreadPool, JobsFromEnvParsesPositive) {
  EXPECT_EQ(parse_options({{"POD_JOBS", "3"}}).jobs,
            std::min<std::size_t>(3, hardware_threads()));
  EXPECT_EQ(parse_options({{"POD_JOBS", "100000"}}).jobs, hardware_threads());
}

TEST(ThreadPool, JobsFromEnvFallsBack) {
  // Unset or empty: the hardware concurrency, at least 1.
  EXPECT_EQ(parse_options({}).jobs, hardware_threads());
  EXPECT_EQ(parse_options({{"POD_JOBS", ""}}).jobs, hardware_threads());
  EXPECT_GE(parse_options({}).jobs, 1u);
  // Zero, negative and junk values are rejected, not silently replaced.
  for (const char* bad : {"0", "-2", "junk"})
    EXPECT_THROW(parse_options({{"POD_JOBS", bad}}), std::invalid_argument)
        << bad;
}

}  // namespace
}  // namespace pod

// util/executor: the fixed worker pool behind MonitorManager's cross-tenant
// scheduling. Covers serial-inline mode, worker-thread submission,
// exception propagation, and draining on destruction.
#include "util/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace flowdiff {
namespace {

TEST(ExecutorTest, SerialModeRunsInlineOnCallingThread) {
  Executor exec(0);
  EXPECT_TRUE(exec.serial());
  EXPECT_EQ(exec.workers(), 0);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  exec.submit([&] { ran_on = std::this_thread::get_id(); }).get();
  EXPECT_EQ(ran_on, caller);
}

TEST(ExecutorTest, SubmitRunsOnWorkerThread) {
  Executor exec(2);
  EXPECT_FALSE(exec.serial());
  EXPECT_EQ(exec.workers(), 2);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  exec.submit([&] { ran_on = std::this_thread::get_id(); }).get();
  EXPECT_NE(ran_on, caller);
}

TEST(ExecutorTest, SubmitPropagatesException) {
  Executor exec(2);
  auto future = exec.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ExecutorTest, DestructorRunsEveryQueuedTask) {
  std::atomic<int> ran{0};
  {
    Executor exec(1);  // One worker: submissions necessarily queue up.
    for (int i = 0; i < 16; ++i) {
      exec.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace flowdiff

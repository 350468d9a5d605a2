// A small fixed worker pool with a task-future API.
//
// MonitorManager schedules its per-tenant shard tasks here. Two
// properties it relies on:
//
//   * `workers == 0` runs everything serially, inline, on the calling
//     thread — no threads are created, submit() returns an already-ready
//     future. That is `serve`'s default, and the mode the demux goldens pin.
//   * The destructor runs every task already submitted before it joins the
//     workers, so a queued task never outlives its pool unrun.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace flowdiff {

class Executor {
 public:
  /// `workers <= 0` creates no threads (serial inline mode).
  explicit Executor(int workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] int workers() const { return workers_; }
  [[nodiscard]] bool serial() const { return workers_ == 0; }

  /// Enqueues one task (runs it inline in serial mode). The future
  /// rethrows any exception the task escaped with.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  const int workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace flowdiff

#include "util/executor.h"

#include <algorithm>

namespace flowdiff {

Executor::Executor(int workers) : workers_(std::max(workers, 0)) {
  threads_.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

std::future<void> Executor::submit(std::function<void()> task) {
  std::packaged_task<void()> work(std::move(task));
  std::future<void> future = work.get_future();
  if (serial()) {
    work();
    return future;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(work));
  }
  cv_.notify_one();
  return future;
}

void Executor::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace flowdiff

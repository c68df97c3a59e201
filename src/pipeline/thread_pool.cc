#include "pipeline/thread_pool.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace aec::pipeline {

ThreadPool::Group::~Group() {
  if (pool_ == nullptr) return;
  std::unique_lock lock(pool_->mu_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

ThreadPool::ThreadPool(std::size_t threads, std::size_t queue_capacity)
    : capacity_(queue_capacity),
      tasks_submitted_(
          obs::MetricsRegistry::global().counter("pool.tasks_submitted")),
      queue_wait_us_(obs::MetricsRegistry::global().histogram(
          "pool.queue_wait_us", obs::Histogram::latency_bounds_us())) {
  AEC_CHECK_MSG(threads >= 1, "thread pool needs at least one worker");
  AEC_CHECK_MSG(queue_capacity >= 1, "queue capacity must be positive");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mu_);
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(Group& group, std::function<void()> task) {
  AEC_CHECK_MSG(group.pool_ == nullptr || group.pool_ == this,
                "a completion group belongs to one pool");
  AEC_CHECK_MSG(task != nullptr, "cannot submit an empty task");
  {
    std::unique_lock lock(mu_);
    if (queue_.size() >= capacity_ && !stop_) {
      // Backpressure engaged: time the producer stall.
      const auto blocked_at = std::chrono::steady_clock::now();
      not_full_.wait(lock,
                     [this] { return queue_.size() < capacity_ || stop_; });
      queue_wait_us_->observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - blocked_at)
              .count()));
    }
    AEC_CHECK_MSG(!stop_, "submit() on a stopping thread pool");
    group.pool_ = this;
    ++group.pending_;
    queue_.push_back(Task{std::move(task), &group});
  }
  tasks_submitted_->add();
  not_empty_.notify_one();
}

void ThreadPool::wait(Group& group) {
  std::unique_lock lock(mu_);
  group.done_.wait(lock, [&] { return group.pending_ == 0; });
  if (group.error_) {
    std::exception_ptr error = std::exchange(group.error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      not_empty_.wait(lock, [this] { return !queue_.empty() || stop_; });
      if (queue_.empty()) return;  // stop_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    task.fn = nullptr;  // captures die before the group can be released
    std::lock_guard lock(mu_);
    Group& group = *task.group;
    if (error && !group.error_) group.error_ = std::move(error);
    // Notified under the lock: a waiter that wakes may destroy the group
    // as soon as it reacquires mu_.
    if (--group.pending_ == 0) group.done_.notify_all();
  }
}

}  // namespace aec::pipeline

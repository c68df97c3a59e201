// Fixed-size worker pool with a bounded task queue.
//
// The encoding pipeline (paper §V-B: one task per strand instance per
// batch) and the repair waves need exactly this shape: a caller that
// dispatches small CPU tasks, blocks when the queue is full
// (backpressure, so a fast producer cannot balloon memory), and can wait
// for a barrier before the next batch or wave.
//
// Error model: the first exception thrown by a task is captured and
// rethrown from the next wait_idle() (or the destructor drops it after
// draining). Tasks after a failure still run; the pipeline layer treats a
// poisoned wave as fatal for the whole batch.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace aec::pipeline {

class ThreadPool {
 public:
  static constexpr std::size_t kDefaultQueueCapacity = 256;

  /// Spawns `threads` workers (≥ 1). `queue_capacity` bounds *pending*
  /// (not yet started) tasks; submit() blocks while the queue is full.
  explicit ThreadPool(std::size_t threads,
                      std::size_t queue_capacity = kDefaultQueueCapacity);

  /// Drains the queue, joins the workers. Pending tasks still run; a
  /// captured task exception is discarded here (call wait_idle() first if
  /// you care).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Blocks while the pending queue is at capacity.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task threw since the last wait_idle().
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }
  std::size_t queue_capacity() const noexcept { return capacity_; }

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable not_full_;   // producers: queue has room
  std::condition_variable not_empty_;  // workers: work (or stop) available
  std::condition_variable idle_;       // waiters: queue empty + none active
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t capacity_;
  std::size_t active_ = 0;  // tasks currently executing
  std::exception_ptr first_error_;
  bool stop_ = false;
  /// Global-registry metrics, resolved once at construction. The
  /// queue-wait histogram is touched only when submit() actually blocks
  /// on a full queue (backpressure engaged), so the uncontended path
  /// pays one relaxed fetch_add per task.
  obs::Counter* tasks_submitted_;
  obs::Histogram* queue_wait_us_;
};

}  // namespace aec::pipeline

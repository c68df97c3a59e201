// Fixed-size worker pool with a bounded task queue and per-operation
// completion groups.
//
// The encoding pipeline (paper §V-B: one task per strand instance per
// batch) and the repair waves need exactly this shape: a caller that
// dispatches small CPU tasks, blocks when the queue is full
// (backpressure, so a fast producer cannot balloon memory), and waits
// for a barrier before the next batch or wave.
//
// Barriers are per operation, not per pool: a task submitted into a
// Group counts towards that group alone, and wait(group) returns once
// the group's own tasks have finished, whatever else the pool is
// running. Several coordinators (aecd's writer lane and its read lanes)
// therefore share one pool, each waiting only on its own work.
//
// Error model: the first exception thrown by a group's task is captured
// in that group and rethrown from wait(group); the group's later tasks
// still run, and no other group sees the error.
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

  /// Completion group of one operation (a batch, a wave, a stream's
  /// prefetch). Its tasks may reference the coordinator's state (often
  /// its stack), so the destructor waits for them (discarding their
  /// error — call wait() to see it). A group belongs to the pool it was
  /// first submitted to.
  class Group {
   public:
    Group() = default;
    ~Group();
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    friend class ThreadPool;
    // Guarded by pool_->mu_.
    ThreadPool* pool_ = nullptr;
    std::size_t pending_ = 0;
    std::exception_ptr error_;
    std::condition_variable done_;
  };

  /// Spawns `threads` workers (≥ 1). `queue_capacity` bounds *pending*
  /// (not yet started) tasks; submit() blocks while the queue is full.
  explicit ThreadPool(std::size_t threads,
                      std::size_t queue_capacity = kDefaultQueueCapacity);

  /// Drains the queue, joins the workers. Pending tasks still run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task of `group`. Blocks while the pending queue is at
  /// capacity.
  void submit(Group& group, std::function<void()> task);

  /// Blocks until every task submitted into `group` has finished, then
  /// rethrows the first exception one of them threw since the group's
  /// last wait(). Other groups' tasks are neither waited for nor seen.
  void wait(Group& group);

  std::size_t thread_count() const noexcept { return workers_.size(); }
  std::size_t queue_capacity() const noexcept { return capacity_; }

 private:
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable not_full_;   // producers: queue has room
  std::condition_variable not_empty_;  // workers: work (or stop) available
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  std::size_t capacity_;
  bool stop_ = false;
  /// Global-registry metrics, resolved once at construction. The
  /// queue-wait histogram is touched only when submit() actually blocks
  /// on a full queue (backpressure engaged), so the uncontended path
  /// pays one relaxed fetch_add per task.
  obs::Counter* tasks_submitted_;
  obs::Histogram* queue_wait_us_;
};

}  // namespace aec::pipeline

// Minimal epoll reactor for the aecd daemon (Linux-only, like the rest
// of the file-backed stores' rename semantics we already rely on).
//
// One thread runs run(); every registered fd's callback fires on that
// thread, so connection state needs no locks. Other threads communicate
// with the loop exclusively through post(), which enqueues a closure
// and wakes the loop via an eventfd — this is how the archive lanes
// report finished requests and reply bytes a socket did not take.
//
// Dispatch is level-triggered and keyed on a (fd, generation) token
// carried in epoll_event.data.u64, so a callback that removes another
// fd mid-batch cannot leave a dangling reference: the removed fd's
// pending events are simply skipped — even when a later callback in
// the same batch re-registers a new connection that reuses the fd
// number (the stale events carry the old generation and don't match).
//
// A periodic tick (set_tick) drives time-based work — idle-connection
// sweeps, drain deadlines — without a timer-fd per connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace aec::net {

class EventLoop {
 public:
  /// Bitmask passed to callbacks: EPOLLIN/EPOLLOUT/EPOLLHUP/EPOLLERR.
  using FdCallback = std::function<void(std::uint32_t events)>;

  EventLoop();  // CheckError when epoll/eventfd creation fails
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLL* mask). Loop-thread only (or
  /// before run()).
  void add(int fd, std::uint32_t events, FdCallback cb);
  void modify(int fd, std::uint32_t events);
  /// Deregisters; does not close the fd. Safe for fds already gone.
  void remove(int fd);

  /// Enqueues `fn` to run on the loop thread. Thread-safe; the one
  /// cross-thread entry point.
  void post(std::function<void()> fn);

  /// Runs until stop(). Tick (if set) fires at least every
  /// `tick_interval_ms`.
  void run();
  /// Thread-safe; run() returns after the current iteration.
  void stop();

  /// Periodic housekeeping hook (idle sweeps, drain deadlines).
  void set_tick(int interval_ms, std::function<void()> fn);

 private:
  /// Registered fd state; `gen` disambiguates fd-number reuse within
  /// one epoll_wait batch (see header comment).
  struct Registration {
    std::uint32_t gen = 0;
    FdCallback cb;
  };

  void drain_posted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> running_{false};
  std::mutex mu_;
  std::vector<std::function<void()>> posted_;
  std::unordered_map<int, Registration> callbacks_;
  std::uint32_t next_gen_ = 0;
  int tick_interval_ms_ = 500;
  std::function<void()> tick_;
};

}  // namespace aec::net

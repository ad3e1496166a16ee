// Single-threaded event loop — the concurrency model of hpcapd.
//
// One thread owns every socket: readiness callbacks, one-shot timers and
// deferred tasks all run on the loop thread, so connection state needs no
// locks. The only cross-thread (and async-signal-safe) entry point is
// wake(), a self-pipe write that interrupts the wait; a signal handler or
// another thread uses it to get the loop's attention, and the loop then
// runs its wake handler (e.g. hpcapd's SIGHUP model reload, or a reactor
// shard draining its hand-off mailbox).
//
// Readiness comes from epoll(7), level-triggered, so hpcap_net needs
// Linux. The kernel holds the interest set and each wait costs O(ready),
// so a mostly-idle 50k-connection daemon pays only for the fds with
// traffic. An error/hangup is reported as readable, and events the kernel
// reported for an fd number that a callback closed and a new registration
// reused in the same round are dropped (net_event_loop_test pins both
// dispatch hazards).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace hpcap::net {

class EventLoop {
 public:
  // `readable`/`writable` report which requested interests fired; an
  // error/hangup condition on the fd is reported as readable so the
  // callback's read() observes it.
  using IoCallback = std::function<void(bool readable, bool writable)>;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` (must be unique; the loop does not own or close it).
  void add_fd(int fd, bool want_read, bool want_write, IoCallback cb);
  void set_interest(int fd, bool want_read, bool want_write);
  // Safe to call from inside the fd's own callback; dispatch for the
  // removed fd is suppressed for the rest of the iteration.
  void remove_fd(int fd);

  // One-shot timer on the loop's monotonic clock. Callbacks run on the
  // loop thread in deadline order.
  TimerId add_timer(double delay_seconds, std::function<void()> cb);
  void cancel_timer(TimerId id);

  // Seconds on the loop's monotonic clock (also valid off-thread).
  double now() const;

  // Runs until stop(). Dispatches io, timers, then wake notifications.
  void run();
  // Ends run() after the current iteration. Loop-thread only; from other
  // threads use wake() with a handler that calls stop().
  void stop();
  bool running() const noexcept { return running_; }

  // Async-signal-safe and thread-safe: interrupts the current wait and
  // makes the loop invoke the wake handler.
  void wake() noexcept;
  void set_wake_handler(std::function<void()> handler);

 private:
  // One registry slot per fd number; gen == 0 marks a free slot.
  struct FdEntry {
    IoCallback cb;
    // Registration stamp: an fd number freed by a callback and reused by
    // a new registration in the same dispatch round must not receive the
    // old socket's events. Its low 32 bits ride in each epoll event.
    std::uint64_t gen = 0;
  };
  struct Timer {
    TimerId id = 0;
    double deadline = 0.0;
    std::function<void()> cb;
  };

  FdEntry* find_fd(int fd);
  void epoll_update(int fd, std::uint64_t gen, bool want_read,
                    bool want_write, int op);
  int wait_timeout_ms() const;
  void dispatch_timers();
  void drain_wake_pipe();
  void round();

  std::vector<FdEntry> fds_;   // indexed by fd number
  std::vector<Timer> timers_;  // kept sorted by (deadline, id)
  TimerId next_timer_id_ = 1;
  std::uint64_t next_fd_gen_ = 1;
  int wake_pipe_[2] = {-1, -1};
  int epoll_fd_ = -1;
  std::function<void()> wake_handler_;
  bool running_ = false;
};

}  // namespace hpcap::net

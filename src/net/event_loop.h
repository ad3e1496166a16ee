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
// Two readiness backends sit behind one contract:
//
//   * poll(2) — the only backend off Linux. O(fds) per wait, which is
//     irrelevant at tens of connections but the binding constraint at
//     tens of thousands.
//   * epoll(7) — Linux only, always selected there (kAuto). O(ready)
//     per wait; the kernel holds the interest set, so a mostly-idle
//     50k-connection daemon pays only for the fds with traffic.
//
// Dispatch semantics are identical across backends — same
// add_fd/set_interest/remove_fd/timer/wake contract, same
// error-reported-as-readable convention, same stale-revents suppression
// for fd numbers reused mid-round — and the backend-parity suite in
// net_event_loop_test runs every loop regression against both.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace hpcap::net {

// Readiness backend selection. kAuto resolves to kEpoll on Linux and
// kPoll elsewhere; the backend-parity suite asks for kPoll explicitly.
// Requesting kEpoll on a platform without it throws.
enum class LoopBackend { kAuto, kPoll, kEpoll };

class EventLoop {
 public:
  // `readable`/`writable` report which requested interests fired; an
  // error/hangup condition on the fd is reported as readable so the
  // callback's read() observes it.
  using IoCallback = std::function<void(bool readable, bool writable)>;
  using TimerId = std::uint64_t;

  explicit EventLoop(LoopBackend backend = LoopBackend::kAuto);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // The resolved backend (never kAuto).
  LoopBackend backend() const noexcept { return backend_; }
  // True when this build can construct an epoll-backed loop.
  static bool epoll_supported() noexcept;

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
  struct FdEntry {
    int fd = -1;
    short events = 0;
    IoCallback cb;
    bool dead = false;
    // Registration stamp: an fd number freed by a callback and reused by
    // a new registration in the same dispatch round must not receive the
    // old socket's revents.
    std::uint64_t gen = 0;
  };
  struct Timer {
    TimerId id = 0;
    double deadline = 0.0;
    std::function<void()> cb;
  };

  // O(1) registry lookup: slot_of_[fd] indexes fds_, -1 when the fd is
  // not (live-)registered. Replaces the old O(n) scan, which multiplied
  // into O(fds * ready) dispatch — the other half of the poll bottleneck.
  int find_fd(int fd) const;
  void map_slot(int fd, int slot);
  void rebuild_slots();

  int wait_timeout_ms() const;
  void dispatch_timers();
  void drain_wake_pipe();
  void dispatch_entry(int slot, std::uint64_t gen, bool readable,
                      bool writable);
  void compact_dead();
  void poll_round();
#if defined(__linux__)
  void epoll_round();
  void epoll_update(const FdEntry& e, int op);
#endif

  LoopBackend backend_ = LoopBackend::kPoll;
  std::vector<FdEntry> fds_;
  std::vector<int> slot_of_;  // indexed by fd number
  std::vector<Timer> timers_;  // kept sorted by (deadline, id)
  TimerId next_timer_id_ = 1;
  std::uint64_t next_fd_gen_ = 1;
  int wake_pipe_[2] = {-1, -1};
  int epoll_fd_ = -1;
  std::function<void()> wake_handler_;
  bool running_ = false;
  bool have_dead_fds_ = false;
};

}  // namespace hpcap::net

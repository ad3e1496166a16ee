#include "net/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace hpcap::net {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::runtime_error sys_error(const char* what, int err) {
  return std::runtime_error(std::string("EventLoop: ") + what + ": " +
                            std::strerror(err));
}

// Closes the fd unless released: a constructor that throws never runs
// the destructor, so each fd is owned here until construction succeeds.
struct OwnedFd {
  explicit OwnedFd(int owned) noexcept : fd(owned) {}
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  ~OwnedFd() {
    if (fd >= 0) ::close(fd);
  }
  int release() noexcept { return std::exchange(fd, -1); }
  int fd;
};

// The epoll event carries (gen, fd) so a stale kernel event cannot reach
// a registration that reused the fd number within the same dispatch
// round: the low 32 bits of the registration stamp ride along and must
// match the live entry's.
std::uint64_t pack_event(std::uint64_t gen, int fd) {
  return (gen & 0xffffffffull) << 32 | static_cast<std::uint32_t>(fd);
}

}  // namespace

EventLoop::EventLoop() {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0)
    throw sys_error("pipe2", errno);
  OwnedFd wake_read{pipe_fds[0]};
  OwnedFd wake_write{pipe_fds[1]};
  OwnedFd epoll{::epoll_create1(EPOLL_CLOEXEC)};
  if (epoll.fd < 0) throw sys_error("epoll_create1", errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = pack_event(0, wake_read.fd);
  if (::epoll_ctl(epoll.fd, EPOLL_CTL_ADD, wake_read.fd, &ev) != 0)
    throw sys_error("epoll_ctl(wake)", errno);
  wake_pipe_[0] = wake_read.release();
  wake_pipe_[1] = wake_write.release();
  epoll_fd_ = epoll.release();
}

EventLoop::~EventLoop() {
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  ::close(epoll_fd_);
}

EventLoop::FdEntry* EventLoop::find_fd(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size()) return nullptr;
  FdEntry& e = fds_[static_cast<std::size_t>(fd)];
  return e.gen != 0 ? &e : nullptr;
}

void EventLoop::epoll_update(int fd, std::uint64_t gen, bool want_read,
                             bool want_write, int op) {
  epoll_event ev{};
  // Level-triggered; ERR/HUP are always delivered by the kernel and
  // dispatch as readable.
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = pack_event(gen, fd);
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0)
    throw sys_error("epoll_ctl", errno);
}

void EventLoop::add_fd(int fd, bool want_read, bool want_write,
                       IoCallback cb) {
  if (fd < 0) throw std::invalid_argument("EventLoop::add_fd: bad fd");
  if (find_fd(fd) != nullptr)
    throw std::invalid_argument("EventLoop::add_fd: fd already registered");
  const std::uint64_t gen = next_fd_gen_++;
  epoll_update(fd, gen, want_read, want_write, EPOLL_CTL_ADD);
  const auto ufd = static_cast<std::size_t>(fd);
  if (ufd >= fds_.size()) fds_.resize(ufd + 1);
  fds_[ufd] = FdEntry{std::move(cb), gen};
}

void EventLoop::set_interest(int fd, bool want_read, bool want_write) {
  const FdEntry* e = find_fd(fd);
  if (e == nullptr)
    throw std::invalid_argument("EventLoop::set_interest: unknown fd");
  epoll_update(fd, e->gen, want_read, want_write, EPOLL_CTL_MOD);
}

void EventLoop::remove_fd(int fd) {
  FdEntry* e = find_fd(fd);
  if (e == nullptr) return;
  // Deregister now: the caller is about to close (and possibly reuse)
  // the fd number, and the kernel's interest list must not follow it.
  // A failure here only means the fd is already gone from the set.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  *e = FdEntry{};
}

EventLoop::TimerId EventLoop::add_timer(double delay_seconds,
                                        std::function<void()> cb) {
  Timer t;
  t.id = next_timer_id_++;
  t.deadline = now() + std::max(0.0, delay_seconds);
  t.cb = std::move(cb);
  const auto pos = std::lower_bound(
      timers_.begin(), timers_.end(), t, [](const Timer& a, const Timer& b) {
        return a.deadline != b.deadline ? a.deadline < b.deadline
                                        : a.id < b.id;
      });
  const TimerId id = t.id;
  timers_.insert(pos, std::move(t));
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  std::erase_if(timers_, [id](const Timer& t) { return t.id == id; });
}

double EventLoop::now() const { return monotonic_seconds(); }

int EventLoop::wait_timeout_ms() const {
  if (timers_.empty()) return 500;  // bounded so stop()/wake stay snappy
  const double wait = timers_.front().deadline - now();
  if (wait <= 0.0) return 0;
  return static_cast<int>(std::min(500.0, std::ceil(wait * 1000.0)));
}

void EventLoop::dispatch_timers() {
  // Fire every timer whose deadline has passed. Callbacks may add or
  // cancel timers; re-scan from the sorted front each round.
  const double t = now();
  while (!timers_.empty() && timers_.front().deadline <= t) {
    Timer timer = std::move(timers_.front());
    timers_.erase(timers_.begin());
    timer.cb();
  }
}

void EventLoop::drain_wake_pipe() {
  std::uint8_t buf[64];
  while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
  }
  if (wake_handler_) wake_handler_();
}

void EventLoop::round() {
  epoll_event events[128];
  const int rc = ::epoll_wait(epoll_fd_, events,
                              static_cast<int>(std::size(events)),
                              wait_timeout_ms());
  if (rc < 0 && errno != EINTR) throw sys_error("epoll_wait", errno);

  dispatch_timers();

  for (int k = 0; k < rc; ++k) {
    const epoll_event& ev = events[k];
    const int fd = static_cast<int>(ev.data.u64 & 0xffffffffull);
    if (fd == wake_pipe_[0]) {
      drain_wake_pipe();
      continue;
    }
    // An earlier callback may have removed this fd, or closed it and let
    // a new registration reuse the number: these events belong to the
    // old socket, so only the registration that was waited on gets them.
    const FdEntry* e = find_fd(fd);
    if (e == nullptr || (e->gen & 0xffffffffull) != ev.data.u64 >> 32)
      continue;
    // Invoke through a copy: the callback may remove fds or add new ones,
    // and an add_fd resize can reallocate fds_, destroying the entry
    // (and the std::function) mid-invocation.
    const IoCallback cb = e->cb;
    cb((ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0,
       (ev.events & EPOLLOUT) != 0);
  }
}

void EventLoop::run() {
  running_ = true;
  while (running_) round();
}

void EventLoop::stop() { running_ = false; }

void EventLoop::wake() noexcept {
  const std::uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] const auto rc = ::write(wake_pipe_[1], &byte, 1);
}

void EventLoop::set_wake_handler(std::function<void()> handler) {
  wake_handler_ = std::move(handler);
}

}  // namespace hpcap::net

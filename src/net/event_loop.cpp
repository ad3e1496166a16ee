#include "net/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/log.h"

namespace hpcap::net {

namespace {

void set_nonblocking_cloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#if defined(__linux__)
// The epoll event carries (gen, fd) so a stale kernel event cannot reach
// a registration that reused the fd number within the same dispatch
// round: the low 32 bits of the registration stamp ride along and must
// match the live entry's.
std::uint64_t pack_event(std::uint64_t gen, int fd) {
  return (gen & 0xffffffffull) << 32 | static_cast<std::uint32_t>(fd);
}
#endif

}  // namespace

bool EventLoop::epoll_supported() noexcept {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

EventLoop::EventLoop(LoopBackend backend) {
  if (backend == LoopBackend::kAuto)
    backend = epoll_supported() ? LoopBackend::kEpoll : LoopBackend::kPoll;
  backend_ = backend;
  if (backend_ == LoopBackend::kEpoll && !epoll_supported())
    throw std::runtime_error("EventLoop: epoll backend not supported here");
  if (::pipe(wake_pipe_) != 0)
    throw std::runtime_error(std::string("EventLoop: pipe: ") +
                             std::strerror(errno));
  set_nonblocking_cloexec(wake_pipe_[0]);
  set_nonblocking_cloexec(wake_pipe_[1]);
#if defined(__linux__)
  if (backend_ == LoopBackend::kEpoll) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0)
      throw std::runtime_error(std::string("EventLoop: epoll_create1: ") +
                               std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = pack_event(0, wake_pipe_[0]);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) != 0) {
      const int err = errno;
      ::close(epoll_fd_);
      throw std::runtime_error(std::string("EventLoop: epoll_ctl(wake): ") +
                               std::strerror(err));
    }
  }
#endif
}

EventLoop::~EventLoop() {
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

int EventLoop::find_fd(int fd) const {
  if (fd < 0 || static_cast<std::size_t>(fd) >= slot_of_.size()) return -1;
  return slot_of_[static_cast<std::size_t>(fd)];
}

void EventLoop::map_slot(int fd, int slot) {
  const auto ufd = static_cast<std::size_t>(fd);
  if (ufd >= slot_of_.size()) slot_of_.resize(ufd + 1, -1);
  slot_of_[ufd] = slot;
}

void EventLoop::rebuild_slots() {
  std::fill(slot_of_.begin(), slot_of_.end(), -1);
  for (std::size_t i = 0; i < fds_.size(); ++i)
    if (!fds_[i].dead) map_slot(fds_[i].fd, static_cast<int>(i));
}

#if defined(__linux__)
void EventLoop::epoll_update(const FdEntry& e, int op) {
  epoll_event ev{};
  // Level-triggered, exactly the poll() interest translation; ERR/HUP
  // are always delivered by the kernel and dispatch as readable.
  ev.events = static_cast<std::uint32_t>(
      ((e.events & POLLIN) ? EPOLLIN : 0u) |
      ((e.events & POLLOUT) ? EPOLLOUT : 0u));
  ev.data.u64 = pack_event(e.gen, e.fd);
  if (::epoll_ctl(epoll_fd_, op, e.fd, &ev) != 0)
    throw std::runtime_error(std::string("EventLoop: epoll_ctl: ") +
                             std::strerror(errno));
}
#endif

void EventLoop::add_fd(int fd, bool want_read, bool want_write,
                       IoCallback cb) {
  if (fd < 0) throw std::invalid_argument("EventLoop::add_fd: bad fd");
  if (find_fd(fd) >= 0)
    throw std::invalid_argument("EventLoop::add_fd: fd already registered");
  FdEntry e;
  e.fd = fd;
  e.events = static_cast<short>((want_read ? POLLIN : 0) |
                                (want_write ? POLLOUT : 0));
  e.cb = std::move(cb);
  e.gen = next_fd_gen_++;
#if defined(__linux__)
  if (backend_ == LoopBackend::kEpoll) epoll_update(e, EPOLL_CTL_ADD);
#endif
  fds_.push_back(std::move(e));
  map_slot(fd, static_cast<int>(fds_.size() - 1));
}

void EventLoop::set_interest(int fd, bool want_read, bool want_write) {
  const int i = find_fd(fd);
  if (i < 0)
    throw std::invalid_argument("EventLoop::set_interest: unknown fd");
  FdEntry& e = fds_[static_cast<std::size_t>(i)];
  e.events = static_cast<short>((want_read ? POLLIN : 0) |
                                (want_write ? POLLOUT : 0));
#if defined(__linux__)
  if (backend_ == LoopBackend::kEpoll) epoll_update(e, EPOLL_CTL_MOD);
#endif
}

void EventLoop::remove_fd(int fd) {
  const int i = find_fd(fd);
  if (i < 0) return;
  FdEntry& e = fds_[static_cast<std::size_t>(i)];
  e.dead = true;
#if defined(__linux__)
  // Deregister now: the caller is about to close (and possibly reuse)
  // the fd number, and the kernel's interest list must not follow it.
  // A failure here only means the fd is already gone from the set.
  if (backend_ == LoopBackend::kEpoll)
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
  slot_of_[static_cast<std::size_t>(fd)] = -1;
  have_dead_fds_ = true;
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

void EventLoop::dispatch_entry(int slot, std::uint64_t gen, bool readable,
                               bool writable) {
  if (slot < 0) return;  // removed by an earlier callback this round
  const FdEntry& e = fds_[static_cast<std::size_t>(slot)];
  if (e.dead) return;
  // An earlier callback may have closed this fd number and a new
  // registration reused it: these events belong to the old socket, so
  // only the registration that was waited on gets them. (epoll compares
  // the low 32 bits it packed into the event.)
  if ((e.gen & 0xffffffffull) != (gen & 0xffffffffull)) return;
  // Invoke through a copy: the callback may remove fds or add new ones,
  // and an add_fd push_back can reallocate fds_, destroying the entry
  // (and the std::function) mid-invocation.
  const IoCallback cb = e.cb;
  cb(readable, writable);
}

void EventLoop::compact_dead() {
  if (!have_dead_fds_) return;
  std::erase_if(fds_, [](const FdEntry& e) { return e.dead; });
  have_dead_fds_ = false;
  rebuild_slots();
}

void EventLoop::poll_round() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> gens;  // registration stamp per pfds slot
  pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
  gens.push_back(0);
  for (const FdEntry& e : fds_)
    if (!e.dead) {
      pfds.push_back(pollfd{e.fd, e.events, 0});
      gens.push_back(e.gen);
    }

  const int rc = ::poll(pfds.data(), pfds.size(), wait_timeout_ms());
  if (rc < 0 && errno != EINTR)
    throw std::runtime_error(std::string("EventLoop: poll: ") +
                             std::strerror(errno));

  dispatch_timers();

  if (rc > 0) {
    // Wake pipe first: drain, then notify.
    if (pfds[0].revents & POLLIN) drain_wake_pipe();
    for (std::size_t k = 1; k < pfds.size(); ++k) {
      const pollfd& p = pfds[k];
      if (p.revents == 0) continue;
      const bool readable =
          (p.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0;
      const bool writable = (p.revents & POLLOUT) != 0;
      dispatch_entry(find_fd(p.fd), gens[k], readable, writable);
    }
  }
}

#if defined(__linux__)
void EventLoop::epoll_round() {
  epoll_event events[128];
  const int rc = ::epoll_wait(epoll_fd_, events,
                              static_cast<int>(std::size(events)),
                              wait_timeout_ms());
  if (rc < 0 && errno != EINTR)
    throw std::runtime_error(std::string("EventLoop: epoll_wait: ") +
                             std::strerror(errno));

  dispatch_timers();

  for (int k = 0; k < rc; ++k) {
    const epoll_event& ev = events[k];
    const int fd = static_cast<int>(ev.data.u64 & 0xffffffffull);
    const std::uint64_t gen = ev.data.u64 >> 32;
    if (fd == wake_pipe_[0]) {
      drain_wake_pipe();
      continue;
    }
    const bool readable =
        (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
    const bool writable = (ev.events & EPOLLOUT) != 0;
    dispatch_entry(find_fd(fd), gen, readable, writable);
  }
}
#endif

void EventLoop::run() {
  running_ = true;
  while (running_) {
#if defined(__linux__)
    if (backend_ == LoopBackend::kEpoll)
      epoll_round();
    else
      poll_round();
#else
    poll_round();
#endif
    compact_dead();
  }
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

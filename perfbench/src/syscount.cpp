// LD_PRELOAD shim that counts, per thread, the socket and event-loop
// syscalls a process makes through libc. The traced benchmark runs put it
// under hpcapd to measure syscalls per frame from outside the program:
// the counters live in a file the benchmark maps too (PERFBENCH_SYSCOUNT
// names it), so it reads them live, at the edges of the timed phase.
//
// Layout of the file: kSlots slots of {tid, counts[kKinds]}, each 64-bit
// and updated with relaxed atomics. A thread claims a slot on its first
// counted call. Without PERFBENCH_SYSCOUNT the shim only forwards.
#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "syscount.h"

namespace {

using perfbench::syscount::Kind;
using perfbench::syscount::kSlots;
using perfbench::syscount::Slot;

Slot* g_slots = nullptr;
thread_local Slot* t_slot = nullptr;

__attribute__((constructor)) void attach() {
  const char* path = std::getenv("PERFBENCH_SYSCOUNT");
  if (path == nullptr) return;
  const int fd = ::open(path, O_RDWR | O_CLOEXEC);
  if (fd < 0) return;
  void* p = ::mmap(nullptr, sizeof(Slot) * kSlots, PROT_READ | PROT_WRITE,
                   MAP_SHARED, fd, 0);
  ::close(fd);
  if (p != MAP_FAILED) g_slots = static_cast<Slot*>(p);
}

void count(Kind k) {
  if (g_slots == nullptr) return;
  if (t_slot == nullptr) {
    const auto tid = static_cast<std::uint64_t>(::syscall(SYS_gettid));
    for (std::size_t i = 0; i < kSlots && t_slot == nullptr; ++i) {
      std::uint64_t expect = 0;
      if (g_slots[i].tid.compare_exchange_strong(expect, tid))
        t_slot = &g_slots[i];
    }
    if (t_slot == nullptr) return;  // more threads than slots
  }
  t_slot->counts[static_cast<std::size_t>(k)].fetch_add(
      1, std::memory_order_relaxed);
}

template <typename Fn>
Fn next(const char* name) {
  return reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, name));
}

}  // namespace

extern "C" {

ssize_t recv(int fd, void* buf, size_t n, int flags) {
  static const auto real = next<ssize_t (*)(int, void*, size_t, int)>("recv");
  count(Kind::kRecv);
  return real(fd, buf, n, flags);
}

ssize_t read(int fd, void* buf, size_t n) {
  static const auto real = next<ssize_t (*)(int, void*, size_t)>("read");
  count(Kind::kRecv);
  return real(fd, buf, n);
}

ssize_t send(int fd, const void* buf, size_t n, int flags) {
  static const auto real =
      next<ssize_t (*)(int, const void*, size_t, int)>("send");
  count(Kind::kSend);
  return real(fd, buf, n, flags);
}

ssize_t sendmsg(int fd, const msghdr* msg, int flags) {
  static const auto real =
      next<ssize_t (*)(int, const msghdr*, int)>("sendmsg");
  count(Kind::kSend);
  return real(fd, msg, flags);
}

ssize_t write(int fd, const void* buf, size_t n) {
  static const auto real =
      next<ssize_t (*)(int, const void*, size_t)>("write");
  count(Kind::kSend);
  return real(fd, buf, n);
}

int epoll_wait(int epfd, epoll_event* events, int maxevents, int timeout) {
  static const auto real =
      next<int (*)(int, epoll_event*, int, int)>("epoll_wait");
  count(Kind::kWait);
  return real(epfd, events, maxevents, timeout);
}

int poll(pollfd* fds, nfds_t nfds, int timeout) {
  static const auto real = next<int (*)(pollfd*, nfds_t, int)>("poll");
  count(Kind::kWait);
  return real(fds, nfds, timeout);
}

int epoll_ctl(int epfd, int op, int fd, epoll_event* ev) {
  static const auto real =
      next<int (*)(int, int, int, epoll_event*)>("epoll_ctl");
  count(Kind::kOther);
  return real(epfd, op, fd, ev);
}

int accept4(int fd, sockaddr* addr, socklen_t* len, int flags) {
  static const auto real =
      next<int (*)(int, sockaddr*, socklen_t*, int)>("accept4");
  count(Kind::kOther);
  return real(fd, addr, len, flags);
}

}  // extern "C"

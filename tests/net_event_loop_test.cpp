// EventLoop dispatch-safety regressions: callbacks that mutate the fd
// registry while the loop is dispatching a readiness round.
//
// Two hazards live here. (1) add_fd from inside a callback can reallocate
// the registry vector — if the loop invoked the callback by reference
// into that vector, the currently-executing std::function would be
// destroyed mid-call. (2) A callback can close an fd whose number is
// immediately reused by a new registration in the same round; the stale
// readiness captured for the old socket must not be dispatched to the new
// registration's callback. Both run under the asan label.
//
// The rest pin the registry contract (remove and re-add, interest
// changes, cross-registration wake) and that a constructor which fails
// part-way leaks none of the descriptors it already opened.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/event_loop.h"

namespace hpcap::net {
namespace {

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int reader() const { return fds[0]; }
  void poke() const {
    const std::uint8_t b = 1;
    EXPECT_EQ(::write(fds[1], &b, 1), 1);
  }
  void drain() const {
    std::uint8_t b;
    EXPECT_EQ(::read(fds[0], &b, 1), 1);
  }
};

TEST(NetEventLoop, CallbackMayGrowTheRegistryMidDispatch) {
  EventLoop loop;
  Pipe trigger;
  trigger.poke();

  // Keep the extra registrations' pipes alive for the whole test.
  std::vector<std::unique_ptr<Pipe>> extras;
  int after_grow = 0;
  bool grew = false;
  // The large capture pushes the lambda's state off std::function's
  // small-buffer optimization: if the loop still invoked the entry in
  // place, the add_fd reallocation below would free this state mid-call
  // and the canary reads would be use-after-free under asan.
  std::array<std::uint8_t, 256> canary;
  canary.fill(0x5A);
  loop.add_fd(trigger.reader(), true, false,
              [&, canary](bool, bool) {
                if (!grew) {
                  grew = true;
                  // Far past any initial vector capacity: several
                  // reallocations while this callback executes.
                  for (int i = 0; i < 64; ++i) {
                    extras.push_back(std::make_unique<Pipe>());
                    loop.add_fd(extras.back()->reader(), true, false,
                                [](bool, bool) {});
                  }
                }
                for (const std::uint8_t b : canary) after_grow += b == 0x5A;
                trigger.drain();
                loop.stop();
              });
  loop.run();
  EXPECT_TRUE(grew);
  EXPECT_EQ(after_grow, 256);
}

TEST(NetEventLoop, ReusedFdNumberDoesNotInheritStaleRevents) {
  EventLoop loop;
  Pipe first;   // dispatched first (registration order)
  Pipe victim;  // readable this round; its fd number gets reused
  first.poke();
  victim.poke();

  int new_cb_hits = 0;
  int reused_fd = -1;
  loop.add_fd(first.reader(), true, false, [&](bool, bool) {
    first.drain();
    // Close the victim and let a fresh descriptor claim its number
    // within the same readiness round. The kernel reported the *old*
    // socket readable; the new registration has no data and must not
    // fire.
    const int number = victim.reader();
    loop.remove_fd(number);
    ::close(victim.fds[0]);
    reused_fd = ::dup(first.reader());  // lowest free fd = victim's number
    ASSERT_EQ(reused_fd, number);
    victim.fds[0] = -1;
    loop.add_fd(reused_fd, true, false, [&](bool, bool) { ++new_cb_hits; });
    loop.add_timer(0.05, [&] { loop.stop(); });
  });
  // Registered second, so its readiness is still pending in the round
  // when the first callback closes it.
  int victim_hits = 0;
  loop.add_fd(victim.reader(), true, false,
              [&](bool, bool) { ++victim_hits; });
  loop.run();
  ::close(reused_fd);
  EXPECT_EQ(victim_hits, 0);
  // The dup of the drained first-pipe reader never has data: any hit
  // means stale readiness from the closed victim was misdelivered.
  EXPECT_EQ(new_cb_hits, 0);
}

TEST(NetEventLoop, RemoveAndReaddKeepsDispatchingNewCallback) {
  EventLoop loop;
  Pipe p;
  p.poke();
  int old_hits = 0;
  int new_hits = 0;
  loop.add_fd(p.reader(), true, false, [&](bool, bool) {
    ++old_hits;
    p.drain();
    loop.remove_fd(p.reader());
    loop.add_fd(p.reader(), true, false, [&](bool, bool) {
      ++new_hits;
      p.drain();
      loop.stop();
    });
    p.poke();  // next round must reach the new registration
  });
  loop.run();
  EXPECT_EQ(old_hits, 1);
  EXPECT_EQ(new_hits, 1);
}

TEST(NetEventLoop, SetInterestTogglesWritability) {
  EventLoop loop;
  Pipe p;
  p.poke();
  int read_hits = 0;
  int write_hits = 0;
  loop.add_fd(p.reader(), true, false, [&](bool readable, bool writable) {
    if (readable) ++read_hits;
    if (writable) ++write_hits;
    p.drain();
    // The read side of a pipe is never writable; flipping interest to
    // write-only must stop dispatch entirely until the timer ends the
    // loop.
    loop.set_interest(p.reader(), false, true);
    p.poke();
    loop.add_timer(0.05, [&] { loop.stop(); });
  });
  loop.run();
  EXPECT_EQ(read_hits, 1);
  EXPECT_EQ(write_hits, 0);
}

TEST(NetEventLoop, WakeFromAnotherRegistrationRunsTheHandler) {
  EventLoop loop;
  Pipe p;
  p.poke();
  int woken = 0;
  loop.set_wake_handler([&] {
    ++woken;
    loop.stop();
  });
  loop.add_fd(p.reader(), true, false, [&](bool, bool) {
    p.drain();
    loop.wake();
  });
  loop.run();
  EXPECT_EQ(woken, 1);
}

// The lowest fd number open() would hand out right now.
int lowest_free_fd() {
  const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  EXPECT_GE(fd, 0);
  ::close(fd);
  return fd;
}

TEST(NetEventLoop, FailedConstructionLeaksNoDescriptors) {
  // Find the two lowest free fd numbers: pipe2 takes exactly these, so a
  // soft limit just above them lets the wake pipe open and makes
  // epoll_create1 fail with EMFILE.
  const int first = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const int second = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(first, 0);
  ASSERT_GT(second, first);
  ::close(first);
  ::close(second);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(second) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  bool threw = false;
  try {
    EventLoop loop;
  } catch (const std::runtime_error&) {
    threw = true;
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_TRUE(threw);
  // Both wake-pipe descriptors were closed again on the way out.
  EXPECT_EQ(lowest_free_fd(), first);
}

}  // namespace
}  // namespace hpcap::net

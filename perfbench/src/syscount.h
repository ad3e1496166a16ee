// Shared layout of the syscall-count file written by the LD_PRELOAD shim
// (syscount.cpp) and read by the benchmark.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace perfbench::syscount {

enum class Kind : std::size_t { kRecv, kSend, kWait, kOther, kCount };
inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
inline constexpr std::size_t kSlots = 64;

struct Slot {
  std::atomic<std::uint64_t> tid;
  std::atomic<std::uint64_t> counts[kKinds];
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

}  // namespace perfbench::syscount

// Little-endian loads from byte buffers at any alignment.
//
// Wire payloads are byte arrays with no alignment promise, so a value is
// read by copying its bytes into a local (compilers turn the memcpy into
// one unaligned load) — never through a misaligned pointer to the wider
// type. On big-endian hosts the bytes are swapped after the load.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace hpcap::util {

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

// IEEE-754 binary64, bit for bit (NaN payloads and signed zeros kept).
inline double load_le_f64(const std::uint8_t* p) noexcept {
  return std::bit_cast<double>(load_le64(p));
}

}  // namespace hpcap::util

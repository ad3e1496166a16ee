#include "net/protocol.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "util/bytes.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace hpcap::net {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw ProtocolError("wire protocol: " + what);
}

std::size_t checked_count(std::uint64_t n, std::size_t cap,
                          const char* what) {
  if (n > cap)
    malformed(std::string(what) + " count " + std::to_string(n) +
              " exceeds cap " + std::to_string(cap));
  return static_cast<std::size_t>(n);
}

// Slicing-by-8 tables for the reflected IEEE polynomial. kCrcTables[0] is
// the classic byte-at-a-time table; kCrcTables[k][i] is the CRC state of
// byte i followed by k zero bytes, so one step folds 8 input bytes with 8
// independent lookups instead of a chain of 8 dependent ones.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Little-endian u32 assembled from bytes: no alignment or host-endianness
// dependence (compilers fold it into one load on little-endian targets).
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu);
}

std::uint16_t load_le16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

// Advances the (pre-inverted) CRC state `c` over n bytes, 8 per step.
std::uint32_t crc32_slice8(std::uint32_t c, const std::uint8_t* p,
                           std::size_t n) noexcept {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
// Unaligned 16-byte load (plain SSE2, part of the x86-64 baseline).
__m128i load16(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x folded forward by k (x.lo * k.lo ^ x.hi * k.hi), plus y.
__attribute__((target("pclmul"))) __m128i clmul_fold(
    __m128i x, __m128i k, __m128i y) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       y);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009; the same
// scheme as Linux's crc32-pclmul). Four 128-bit lanes fold 64 bytes per
// step, then one lane folds 16 bytes per step, then the 128-bit remainder
// is folded to 64 and 32 bits and Barrett-reduced to the CRC state.
// Constants are bit-reflected and shifted left by one:
//   k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod P  (64-byte fold)
//   k3 = x^(128+32) mod P,   k4 = x^(128-32) mod P    (16-byte fold)
//   k5 = x^64 mod P;  u = floor(x^64 / P);  P = 0x104C11DB7.
//
// Advances state `c` over n bytes; n >= 64 and a multiple of 16. Loads are
// unaligned, so any start address works.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  // Four lanes take the first 64 bytes, the state xor-ed into the first.
  // (Named lanes, not an array: GCC -O2 keeps an array on the stack.)
  __m128i x0 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = clmul_fold(x0, k1k2, load16(p));
    x1 = clmul_fold(x1, k1k2, load16(p + 16));
    x2 = clmul_fold(x2, k1k2, load16(p + 32));
    x3 = clmul_fold(x3, k1k2, load16(p + 48));
  }
  // Lanes 1-3 into lane 0, then the remaining 16-byte blocks.
  __m128i r = clmul_fold(clmul_fold(clmul_fold(x0, k3k4, x1), k3k4, x2),
                         k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) r = clmul_fold(r, k3k4, load16(p));

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32 bits.
  r = _mm_xor_si128(_mm_clmulepi64_si128(k3k4, r, 0x01), _mm_srli_si128(r, 8));
  r = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(r, mask32), k5, 0x00),
                    _mm_srli_si128(r, 4));
  // Barrett reduction: r mod P, left in bits 32-63.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(r, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(t, r), 1));
}

// Chosen once, at static initialisation. Before that (a static
// initializer elsewhere checksumming a frame) it reads false, which is
// still correct, just slower.
const bool kHaveClmul = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();
#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= 64 && kHaveClmul) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = crc32_clmul(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return crc32_slice8(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_portable(std::span<const std::uint8_t> data) noexcept {
  return crc32_slice8(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

// --- writer --------------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_f64_array(std::vector<std::uint8_t>& out,
                   std::span<const double> vals) {
  if (vals.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    // The doubles' own bytes, copied once (resize + memcpy would write
    // every byte twice).
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(vals.data());
    out.insert(out.end(), bytes, bytes + vals.size() * 8);
  } else {
    const std::size_t at = out.size();
    out.resize(at + vals.size() * 8);
    std::uint8_t* dst = out.data() + at;
    for (const double v : vals) {
      const auto u = std::bit_cast<std::uint64_t>(v);
      for (int i = 0; i < 8; ++i)
        dst[i] = static_cast<std::uint8_t>((u >> (8 * i)) & 0xff);
      dst += 8;
    }
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > kMaxString)
    throw ProtocolError("wire protocol: string too long to encode");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// --- reader --------------------------------------------------------------

std::uint8_t PayloadReader::read_u8() {
  if (remaining() < 1) malformed("truncated u8");
  return data_[pos_++];
}

std::uint16_t PayloadReader::read_u16() {
  if (remaining() < 2) malformed("truncated u16");
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t PayloadReader::read_u32() {
  if (remaining() < 4) malformed("truncated u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::read_u64() {
  if (remaining() < 8) malformed("truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::int32_t PayloadReader::read_i32() {
  return static_cast<std::int32_t>(read_u32());
}

double PayloadReader::read_f64() {
  return std::bit_cast<double>(read_u64());
}

void PayloadReader::skip_f64(std::size_t n) {
  // Same failure as n read_f64 calls: the first value that cannot be
  // fully read reports a truncated u64.
  if (remaining() < n * 8) malformed("truncated u64");
  pos_ += n * 8;
}

std::string PayloadReader::read_string() {
  const std::size_t n = checked_count(read_u32(), kMaxString, "string");
  if (remaining() < n) malformed("truncated string body");
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

void PayloadReader::expect_done(const char* what) const {
  if (remaining() != 0)
    malformed(std::string(what) + ": " + std::to_string(remaining()) +
              " trailing bytes");
}

// --- framing -------------------------------------------------------------

std::optional<FrameHeader> peek_header(
    std::span<const std::uint8_t> buffer) {
  if (buffer.size() < kHeaderSize) return std::nullopt;
  PayloadReader r(buffer.first(kHeaderSize));
  const std::uint32_t magic = r.read_u32();
  if (magic != kMagic) malformed("bad magic");
  FrameHeader h;
  const std::uint8_t version = r.read_u8();
  if (version != kProtocolVersion)
    malformed("unsupported protocol version " + std::to_string(version));
  const std::uint8_t type = r.read_u8();
  if (type < 1 || type > static_cast<std::uint8_t>(FrameType::kAggregate))
    malformed("unknown frame type " + std::to_string(type));
  h.type = static_cast<FrameType>(type);
  if (r.read_u16() != 0) malformed("nonzero reserved field");
  h.payload_size = r.read_u32();
  if (h.payload_size > kMaxPayload)
    malformed("payload size " + std::to_string(h.payload_size) +
              " exceeds cap");
  return h;
}

namespace {

// In-place framing for the encode_*_into family: begin_frame appends the
// 12-byte header with a zero payload-size placeholder and returns the
// placeholder's offset; end_frame patches the size once the payload has
// been appended and appends the CRC-32 trailer over the whole frame.
// Produces byte-identical frames to encode_frame without a
// separate payload vector.
std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type) {
  put_u32(out, kMagic);
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);
  const std::size_t size_off = out.size();
  put_u32(out, 0);
  return size_off;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t size_off) {
  const std::size_t payload = out.size() - size_off - 4;
  if (payload > kMaxPayload)
    throw ProtocolError("wire protocol: payload too large to encode");
  for (int i = 0; i < 4; ++i)
    out[size_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((payload >> (8 * i)) & 0xff);
  const std::size_t frame_at = size_off - (kHeaderSize - 4);
  put_u32(out, crc32({out.data() + frame_at, out.size() - frame_at}));
}

}  // namespace

std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayload)
    throw ProtocolError("wire protocol: payload too large to encode");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + kCrcSize);
  const std::size_t f = begin_frame(out, type);
  out.insert(out.end(), payload.begin(), payload.end());
  end_frame(out, f);
  return out;
}

// --- HELLO ---------------------------------------------------------------

void encode_hello_request_into(const HelloRequest& req,
                               std::vector<std::uint8_t>& out) {
  const std::size_t f = begin_frame(out, FrameType::kHello);
  put_string(out, req.agent);
  put_string(out, req.level);
  put_u16(out, req.num_tiers);
  put_u16(out, req.window);
  put_u64(out, req.resume_token);
  put_u32(out, req.resume_from_window);
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_hello_request(const HelloRequest& req) {
  std::vector<std::uint8_t> out;
  encode_hello_request_into(req, out);
  return out;
}

HelloRequest decode_hello_request(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  HelloRequest req;
  req.agent = r.read_string();
  req.level = r.read_string();
  req.num_tiers = r.read_u16();
  req.window = r.read_u16();
  req.resume_token = r.read_u64();
  req.resume_from_window = r.read_u32();
  r.expect_done("HELLO request");
  return req;
}

void encode_hello_reply_into(const HelloReply& rep,
                             std::vector<std::uint8_t>& out) {
  const std::size_t f = begin_frame(out, FrameType::kHello);
  put_u8(out, rep.accepted ? 1 : 0);
  put_string(out, rep.message);
  put_u16(out, rep.num_tiers);
  put_u16(out, rep.window);
  put_u32(out, rep.model_version);
  if (rep.dims.size() > kMaxTiers)
    throw ProtocolError("wire protocol: too many tiers to encode");
  put_u16(out, static_cast<std::uint16_t>(rep.dims.size()));
  for (std::uint16_t d : rep.dims) put_u16(out, d);
  put_u64(out, rep.session_token);
  put_u64(out, rep.last_applied_seq);
  put_u8(out, rep.resumed ? 1 : 0);
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_hello_reply(const HelloReply& rep) {
  std::vector<std::uint8_t> out;
  encode_hello_reply_into(rep, out);
  return out;
}

HelloReply decode_hello_reply(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  HelloReply rep;
  rep.accepted = r.read_u8() != 0;
  rep.message = r.read_string();
  rep.num_tiers = r.read_u16();
  rep.window = r.read_u16();
  rep.model_version = r.read_u32();
  const std::size_t n = checked_count(r.read_u16(), kMaxTiers, "tier");
  rep.dims.resize(n);
  for (auto& d : rep.dims) d = r.read_u16();
  rep.session_token = r.read_u64();
  rep.last_applied_seq = r.read_u64();
  rep.resumed = r.read_u8() != 0;
  r.expect_done("HELLO reply");
  return rep;
}

// --- SAMPLE_BATCH --------------------------------------------------------

// hpcap-lint: hot-path
void encode_sample_batch_into(const SampleBatch& batch,
                              std::vector<std::uint8_t>& out) {
  if (batch.ticks.size() > kMaxTicksPerBatch)
    throw ProtocolError("wire protocol: too many ticks to encode");
  const std::size_t f = begin_frame(out, FrameType::kSampleBatch);
  put_u64(out, batch.batch_seq);
  put_u32(out, batch.first_tick);
  put_u16(out, static_cast<std::uint16_t>(batch.ticks.size()));
  for (const Tick& tick : batch.ticks) {
    if (tick.tiers.size() > kMaxTiers)
      throw ProtocolError("wire protocol: too many tiers to encode");
    put_u16(out, static_cast<std::uint16_t>(tick.tiers.size()));
    for (const TierSlot& slot : tick.tiers) {
      put_u8(out, slot.present ? 1 : 0);
      if (!slot.present) continue;
      if (slot.values.size() > kMaxRowDim)
        throw ProtocolError("wire protocol: row too wide to encode");
      put_u16(out, static_cast<std::uint16_t>(slot.values.size()));
      put_f64_array(out, slot.values);
    }
  }
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_sample_batch(const SampleBatch& batch) {
  std::vector<std::uint8_t> out;
  encode_sample_batch_into(batch, out);
  return out;
}

// hpcap-lint: hot-path
SampleBatchShape scan_sample_batch(std::span<const std::uint8_t> payload,
                                   std::size_t tiers, std::size_t dim) {
  PayloadReader r(payload);
  SampleBatchShape shape;
  shape.batch_seq = r.read_u64();
  shape.first_tick = r.read_u32();
  shape.ticks = checked_count(r.read_u16(), kMaxTicksPerBatch, "tick");
  for (std::size_t t = 0; t < shape.ticks; ++t) {
    const std::size_t n = checked_count(r.read_u16(), kMaxTiers, "tier");
    if (tiers != 0 && n != tiers && shape.mismatch == nullptr)
      shape.mismatch = "tick tier count mismatch";
    shape.slots += n;
    for (std::size_t i = 0; i < n; ++i) {
      if (r.read_u8() == 0) continue;
      const std::size_t width =
          checked_count(r.read_u16(), kMaxRowDim, "row");
      if (dim != 0 && width != dim && shape.mismatch == nullptr)
        shape.mismatch = "slot width mismatch";
      r.skip_f64(width);
      shape.values += width;
    }
  }
  r.expect_done("SAMPLE_BATCH");
  return shape;
}

SampleBatchReader::SampleBatchReader(
    std::span<const std::uint8_t> payload) noexcept
    : at_(payload.data() + 14) {}  // past batch_seq, first_tick, count

// hpcap-lint: hot-path
std::size_t SampleBatchReader::next_tick() noexcept {
  const std::size_t n = load_le16(at_);
  at_ += 2;
  return n;
}

// hpcap-lint: hot-path
SampleBatchReader::Slot SampleBatchReader::next_slot() noexcept {
  Slot slot;
  slot.present = *at_++ != 0;
  if (!slot.present) return slot;
  const std::size_t bytes = std::size_t{8} * load_le16(at_);
  slot.values = {at_ + 2, bytes};
  at_ += 2 + bytes;
  return slot;
}

// hpcap-lint: hot-path
SampleBatchView decode_sample_batch_view(
    std::span<const std::uint8_t> payload, BatchArena& arena) {
  // The scan validates the structure and counts ticks/slots/values, so
  // the arena arrays are sized exactly once (no growth reallocation, and
  // a hostile count never drives a speculative over-allocation).
  const SampleBatchShape shape = scan_sample_batch(payload);
  arena.ticks_.resize(shape.ticks);
  // Both counts are bounded by the scanned payload itself — every slot
  // costs at least one byte and every value eight — so neither can
  // exceed kMaxPayload regardless of what the length fields claim.
  arena.slots_.resize(shape.slots);    // hpcap-lint: allow(bounded-decode)
  arena.values_.resize(shape.values);  // hpcap-lint: allow(bounded-decode)
  SampleBatchReader in(payload);
  TierSlotView* slot = arena.slots_.data();
  double* vals = arena.values_.data();
  for (TickView& tick : arena.ticks_) {
    const std::size_t n = in.next_tick();
    tick.tiers = {slot, n};
    for (std::size_t i = 0; i < n; ++i, ++slot) {
      const SampleBatchReader::Slot s = in.next_slot();
      const std::size_t width = s.values.size() / 8;
      if constexpr (std::endian::native == std::endian::little) {
        if (width != 0) std::memcpy(vals, s.values.data(), s.values.size());
      } else {
        for (std::size_t v = 0; v < width; ++v)
          vals[v] = util::load_le_f64(s.values.data() + 8 * v);
      }
      slot->present = s.present;
      slot->values = {vals, width};
      vals += width;
    }
  }
  SampleBatchView batch;
  batch.batch_seq = shape.batch_seq;
  batch.first_tick = shape.first_tick;
  batch.ticks = arena.ticks_;
  return batch;
}

SampleBatch decode_sample_batch(std::span<const std::uint8_t> payload) {
  // One validation implementation: decode through a local arena, then
  // deep-copy the views into the owning struct.
  BatchArena arena;
  const SampleBatchView view = decode_sample_batch_view(payload, arena);
  SampleBatch batch;
  batch.batch_seq = view.batch_seq;
  batch.first_tick = view.first_tick;
  batch.ticks.resize(view.ticks.size());
  for (std::size_t t = 0; t < view.ticks.size(); ++t) {
    const TickView& tv = view.ticks[t];
    batch.ticks[t].tiers.resize(tv.tiers.size());
    for (std::size_t i = 0; i < tv.tiers.size(); ++i) {
      batch.ticks[t].tiers[i].present = tv.tiers[i].present;
      batch.ticks[t].tiers[i].values.assign(tv.tiers[i].values.begin(),
                                            tv.tiers[i].values.end());
    }
  }
  return batch;
}

// --- DECISION ------------------------------------------------------------

// hpcap-lint: hot-path
void encode_decision_block_into(std::span<const DecisionFrame> block,
                                std::vector<std::uint8_t>& out) {
  if (block.empty() || block.size() > kMaxDecisionBlock)
    throw ProtocolError("wire protocol: DECISION block of " +
                        std::to_string(block.size()) + " windows");
  const std::size_t f = begin_frame(out, FrameType::kDecision);
  const std::uint32_t first = block.front().window_index;
  put_u32(out, first);
  put_u16(out, static_cast<std::uint16_t>(block.size()));
  // Records are fixed-width: size the payload once and store in place.
  const std::size_t at = out.size();
  out.resize(at + block.size() * kDecisionRecordSize);
  std::uint8_t* p = out.data() + at;
  for (std::size_t i = 0; i < block.size(); ++i, p += kDecisionRecordSize) {
    const DecisionFrame& d = block[i];
    if (d.window_index != first + i)
      throw ProtocolError("wire protocol: DECISION block windows are not "
                          "consecutive");
    p[0] = d.state;
    p[1] = d.confident;
    p[2] = d.degraded;
    p[3] = 0;
    store_le32(p + 4, static_cast<std::uint32_t>(d.hc));
    store_le32(p + 8, static_cast<std::uint32_t>(d.bottleneck_tier));
    store_le32(p + 12, static_cast<std::uint32_t>(d.staleness));
  }
  end_frame(out, f);
}

DecisionBlock decode_decision_block(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  DecisionBlock block;
  const std::uint32_t first = r.read_u32();
  const std::size_t count = r.read_u16();
  if (count == 0 || count > kMaxDecisionBlock)
    malformed("DECISION: block count " + std::to_string(count) +
              " outside 1.." + std::to_string(kMaxDecisionBlock));
  for (std::size_t i = 0; i < count; ++i) {
    DecisionFrame& d = block.records[i];
    d.window_index = first + static_cast<std::uint32_t>(i);
    d.state = r.read_u8();
    d.confident = r.read_u8();
    d.degraded = r.read_u8();
    if (r.read_u8() != 0) malformed("DECISION: nonzero reserved byte");
    d.hc = r.read_i32();
    d.bottleneck_tier = r.read_i32();
    d.staleness = r.read_i32();
  }
  r.expect_done("DECISION");
  block.count = count;
  return block;
}

void encode_decision_into(const DecisionFrame& d,
                          std::vector<std::uint8_t>& out) {
  encode_decision_block_into({&d, 1}, out);
}

std::vector<std::uint8_t> encode_decision(const DecisionFrame& d) {
  std::vector<std::uint8_t> out;
  encode_decision_into(d, out);
  return out;
}

DecisionFrame decode_decision(std::span<const std::uint8_t> payload) {
  const DecisionBlock block = decode_decision_block(payload);
  if (block.count != 1)
    malformed("DECISION: " + std::to_string(block.count) +
              " records where one was expected");
  return block.records[0];
}

// --- ACK -----------------------------------------------------------------

void encode_ack_into(const AckFrame& ack, std::vector<std::uint8_t>& out) {
  const std::size_t f = begin_frame(out, FrameType::kAck);
  put_u64(out, ack.last_applied_seq);
  put_u32(out, ack.next_window);
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_ack(const AckFrame& ack) {
  std::vector<std::uint8_t> out;
  encode_ack_into(ack, out);
  return out;
}

AckFrame decode_ack(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  AckFrame ack;
  ack.last_applied_seq = r.read_u64();
  ack.next_window = r.read_u32();
  r.expect_done("ACK");
  return ack;
}

// --- STATS ---------------------------------------------------------------

std::uint64_t StatsReply::value(const std::string& key) const {
  for (const auto& [k, v] : entries)
    if (k == key) return v;
  return 0;
}

void encode_stats_request_into(std::vector<std::uint8_t>& out) {
  end_frame(out, begin_frame(out, FrameType::kStats));
}

std::vector<std::uint8_t> encode_stats_request() {
  return encode_frame(FrameType::kStats, {});
}

void encode_stats_reply_into(const StatsReply& rep,
                             std::vector<std::uint8_t>& out) {
  if (rep.entries.size() > kMaxStatsEntries)
    throw ProtocolError("wire protocol: too many stats entries to encode");
  const std::size_t f = begin_frame(out, FrameType::kStats);
  put_u32(out, static_cast<std::uint32_t>(rep.entries.size()));
  for (const auto& [key, value] : rep.entries) {
    put_string(out, key);
    put_u64(out, value);
  }
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& rep) {
  std::vector<std::uint8_t> out;
  encode_stats_reply_into(rep, out);
  return out;
}

StatsReply decode_stats_reply(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  StatsReply rep;
  const std::size_t n =
      checked_count(r.read_u32(), kMaxStatsEntries, "stats entry");
  rep.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = r.read_string();
    const std::uint64_t value = r.read_u64();
    rep.entries.emplace_back(std::move(key), value);
  }
  r.expect_done("STATS reply");
  return rep;
}

// --- RELOAD --------------------------------------------------------------

void encode_reload_request_into(const ReloadRequest& req,
                                std::vector<std::uint8_t>& out) {
  const std::size_t f = begin_frame(out, FrameType::kReload);
  put_string(out, req.path);
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_reload_request(const ReloadRequest& req) {
  std::vector<std::uint8_t> out;
  encode_reload_request_into(req, out);
  return out;
}

ReloadRequest decode_reload_request(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  ReloadRequest req;
  req.path = r.read_string();
  r.expect_done("RELOAD request");
  return req;
}

void encode_reload_reply_into(const ReloadReply& rep,
                              std::vector<std::uint8_t>& out) {
  const std::size_t f = begin_frame(out, FrameType::kReload);
  put_u8(out, rep.ok ? 1 : 0);
  put_u32(out, rep.model_version);
  put_string(out, rep.message);
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_reload_reply(const ReloadReply& rep) {
  std::vector<std::uint8_t> out;
  encode_reload_reply_into(rep, out);
  return out;
}

ReloadReply decode_reload_reply(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  ReloadReply rep;
  rep.ok = r.read_u8() != 0;
  rep.model_version = r.read_u32();
  rep.message = r.read_string();
  r.expect_done("RELOAD reply");
  return rep;
}

// --- SHUTDOWN ------------------------------------------------------------

std::vector<std::uint8_t> encode_shutdown() {
  return encode_frame(FrameType::kShutdown, {});
}

void encode_shutdown_into(std::vector<std::uint8_t>& out) {
  end_frame(out, begin_frame(out, FrameType::kShutdown));
}

// --- AGGREGATE -----------------------------------------------------------

AggregateKind peek_aggregate_kind(std::span<const std::uint8_t> payload) {
  if (payload.empty()) malformed("AGGREGATE: empty payload");
  const std::uint8_t kind = payload[0];
  if (kind < 1 || kind > 3)
    malformed("AGGREGATE: unknown kind " + std::to_string(kind));
  return static_cast<AggregateKind>(kind);
}

void encode_aggregate_subscribe_into(const AggregateSubscribe& req,
                                     std::vector<std::uint8_t>& out) {
  if (req.synopses.size() > kMaxAggSynopses)
    throw ProtocolError("AGGREGATE: too many synopses to encode");
  const std::size_t f = begin_frame(out, FrameType::kAggregate);
  put_u8(out, static_cast<std::uint8_t>(AggregateKind::kSubscribe));
  put_string(out, req.leaf);
  put_u16(out, static_cast<std::uint16_t>(req.synopses.size()));
  for (const std::uint16_t s : req.synopses) put_u16(out, s);
  put_u64(out, req.resume_token);
  put_u32(out, req.resume_from_window);
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_aggregate_subscribe(
    const AggregateSubscribe& req) {
  std::vector<std::uint8_t> out;
  encode_aggregate_subscribe_into(req, out);
  return out;
}

AggregateSubscribe decode_aggregate_subscribe(
    std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  if (r.read_u8() != static_cast<std::uint8_t>(AggregateKind::kSubscribe))
    malformed("AGGREGATE: not a SUBSCRIBE payload");
  AggregateSubscribe req;
  req.leaf = r.read_string();
  const std::size_t n = checked_count(
      r.read_u16(), kMaxAggSynopses, "aggregate synopsis");
  req.synopses.resize(n);
  for (std::size_t i = 0; i < n; ++i) req.synopses[i] = r.read_u16();
  req.resume_token = r.read_u64();
  req.resume_from_window = r.read_u32();
  r.expect_done("AGGREGATE SUBSCRIBE");
  return req;
}

void encode_aggregate_subscribe_reply_into(const AggregateSubscribeReply& rep,
                                           std::vector<std::uint8_t>& out) {
  const std::size_t f = begin_frame(out, FrameType::kAggregate);
  put_u8(out, static_cast<std::uint8_t>(AggregateKind::kSubscribeReply));
  put_u8(out, rep.accepted ? 1 : 0);
  put_string(out, rep.message);
  put_u32(out, rep.model_version);
  put_u16(out, rep.num_synopses);
  put_u64(out, rep.session_token);
  put_u64(out, rep.last_applied_seq);
  put_u8(out, rep.resumed ? 1 : 0);
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_aggregate_subscribe_reply(
    const AggregateSubscribeReply& rep) {
  std::vector<std::uint8_t> out;
  encode_aggregate_subscribe_reply_into(rep, out);
  return out;
}

AggregateSubscribeReply decode_aggregate_subscribe_reply(
    std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  if (r.read_u8() !=
      static_cast<std::uint8_t>(AggregateKind::kSubscribeReply))
    malformed("AGGREGATE: not a SUBSCRIBE_REPLY payload");
  AggregateSubscribeReply rep;
  rep.accepted = r.read_u8() != 0;
  rep.message = r.read_string();
  rep.model_version = r.read_u32();
  rep.num_synopses = r.read_u16();
  rep.session_token = r.read_u64();
  rep.last_applied_seq = r.read_u64();
  rep.resumed = r.read_u8() != 0;
  r.expect_done("AGGREGATE SUBSCRIBE_REPLY");
  return rep;
}

void encode_aggregate_batch_into(const AggregateBatch& batch,
                                 std::vector<std::uint8_t>& out) {
  if (batch.windows.size() > kMaxAggWindows)
    throw ProtocolError("AGGREGATE: too many windows to encode");
  const std::size_t f = begin_frame(out, FrameType::kAggregate);
  put_u8(out, static_cast<std::uint8_t>(AggregateKind::kVotes));
  put_u64(out, batch.agg_seq);
  put_u16(out, static_cast<std::uint16_t>(batch.windows.size()));
  for (const AggregateWindow& w : batch.windows) {
    if (w.votes.size() != w.valid.size() ||
        w.votes.size() > kMaxAggSynopses)
      throw ProtocolError("AGGREGATE: malformed window to encode");
    put_u32(out, w.window_index);
    put_u16(out, static_cast<std::uint16_t>(w.votes.size()));
    for (std::size_t i = 0; i < w.votes.size(); ++i) {
      // One cell byte per synopsis: 0 abstain, 1/2 a valid vote 0/1.
      std::uint8_t cell = 0;
      if (w.valid[i]) {
        if (w.votes[i] != 0 && w.votes[i] != 1)
          throw ProtocolError("AGGREGATE: vote outside the binary domain");
        cell = static_cast<std::uint8_t>(1 + w.votes[i]);
      }
      put_u8(out, cell);
    }
  }
  end_frame(out, f);
}

std::vector<std::uint8_t> encode_aggregate_batch(const AggregateBatch& batch) {
  std::vector<std::uint8_t> out;
  encode_aggregate_batch_into(batch, out);
  return out;
}

AggregateBatch decode_aggregate_batch(
    std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  if (r.read_u8() != static_cast<std::uint8_t>(AggregateKind::kVotes))
    malformed("AGGREGATE: not a VOTES payload");
  AggregateBatch batch;
  batch.agg_seq = r.read_u64();
  const std::size_t count = checked_count(
      r.read_u16(), kMaxAggWindows, "aggregate window");
  batch.windows.resize(count);
  for (AggregateWindow& w : batch.windows) {
    w.window_index = r.read_u32();
    const std::size_t n = checked_count(
        r.read_u16(), kMaxAggSynopses, "aggregate synopsis");
    w.votes.resize(n);
    w.valid.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t cell = r.read_u8();
      if (cell > 2) malformed("AGGREGATE VOTES: cell outside 0..2");
      w.valid[i] = cell != 0;
      w.votes[i] = cell == 0 ? 0 : cell - 1;
    }
  }
  r.expect_done("AGGREGATE VOTES");
  return batch;
}

// --- FrameAssembler ------------------------------------------------------

FrameAssembler::FrameAssembler(FrameAssembler&& other) noexcept
    : buf_(std::move(other.buf_)),
      start_(std::exchange(other.start_, 0)),
      end_(std::exchange(other.end_, 0)) {}

FrameAssembler& FrameAssembler::operator=(FrameAssembler&& other) noexcept {
  buf_ = std::move(other.buf_);
  start_ = std::exchange(other.start_, 0);
  end_ = std::exchange(other.end_, 0);
  return *this;
}

// hpcap-lint: hot-path
std::span<std::uint8_t> FrameAssembler::prepare(std::size_t min) {
  // All bookkeeping that moves or drops bytes happens here, never in
  // next_ref(): spans handed out since the last prepare stay valid until
  // this call.
  if (start_ == end_) start_ = end_ = 0;  // all consumed: restart in front
  if (buf_.size() - end_ < min) {
    // Slide the unconsumed tail (a partial frame) to the front, and grow
    // only if that still leaves too little room. Growth zero-fills just
    // the new capacity, once; steady-state reads fill nothing.
    if (start_ > 0) {
      std::memmove(buf_.data(), buf_.data() + start_, end_ - start_);
      end_ -= start_;
      start_ = 0;
    }
    if (buf_.size() - end_ < min)
      buf_.resize(std::max(2 * buf_.size(), end_ + min));
  }
  return {buf_.data() + end_, buf_.size() - end_};
}

// hpcap-lint: hot-path
void FrameAssembler::append(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  std::memcpy(prepare(n).data(), data, n);
  commit(n);
}

// hpcap-lint: hot-path
std::optional<FrameRef> FrameAssembler::next_ref() {
  const std::span<const std::uint8_t> pending(buf_.data() + start_,
                                              end_ - start_);
  const auto header = peek_header(pending);
  if (!header) return std::nullopt;
  const std::size_t body = kHeaderSize + header->payload_size;
  const std::size_t total = body + kCrcSize;
  if (pending.size() < total) return std::nullopt;
  if (crc32(pending.first(body)) != load_le32(pending.data() + body))
    malformed("frame checksum mismatch");
  FrameRef frame;
  frame.type = header->type;
  frame.payload = pending.subspan(kHeaderSize, header->payload_size);
  start_ += total;
  return frame;
}

std::optional<Frame> FrameAssembler::next() {
  const auto ref = next_ref();
  if (!ref) return std::nullopt;
  Frame frame;
  frame.type = ref->type;
  frame.payload.assign(ref->payload.begin(), ref->payload.end());
  return frame;
}

}  // namespace hpcap::net

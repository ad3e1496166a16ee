#include "net/protocol.h"

#include <array>
#include <bit>
#include <cstring>

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

void check_version(std::uint8_t version) {
  if (version < kMinProtocolVersion || version > kProtocolVersion)
    throw ProtocolError("wire protocol: cannot encode for protocol version " +
                        std::to_string(version));
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

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
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
  const std::size_t at = out.size();
  out.resize(at + vals.size() * 8);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data() + at, vals.data(), vals.size() * 8);
  } else {
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

void PayloadReader::read_f64_array(double* dst, std::size_t n) {
  if (remaining() < n * 8) malformed("truncated u64");
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(dst, data_.data() + pos_, n * 8);
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t u = 0;
      for (int i = 0; i < 8; ++i)
        u |= static_cast<std::uint64_t>(data_[pos_ + v * 8 + i]) << (8 * i);
      dst[v] = std::bit_cast<double>(u);
    }
  }
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
  h.version = r.read_u8();
  if (h.version < kMinProtocolVersion || h.version > kProtocolVersion)
    malformed("unsupported protocol version " + std::to_string(h.version));
  const std::uint8_t type = r.read_u8();
  const std::uint8_t max_type = h.version >= 2 ? 8 : 6;
  if (type < 1 || type > max_type)
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
// been appended and, for v2, appends the CRC-32 trailer over the whole
// frame. Produces byte-identical frames to encode_frame without a
// separate payload vector.
std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameType type,
                        std::uint8_t version) {
  check_version(version);
  put_u32(out, kMagic);
  put_u8(out, version);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);
  const std::size_t size_off = out.size();
  put_u32(out, 0);
  return size_off;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t size_off,
               std::uint8_t version) {
  const std::size_t payload = out.size() - size_off - 4;
  if (payload > kMaxPayload)
    throw ProtocolError("wire protocol: payload too large to encode");
  for (int i = 0; i < 4; ++i)
    out[size_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((payload >> (8 * i)) & 0xff);
  if (version >= 2) {
    const std::size_t frame_at = size_off - (kHeaderSize - 4);
    const std::uint32_t c =
        crc32({out.data() + frame_at, out.size() - frame_at});
    put_u32(out, c);
  }
}

}  // namespace

std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload,
    std::uint8_t version) {
  if (payload.size() > kMaxPayload)
    throw ProtocolError("wire protocol: payload too large to encode");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + kCrcSize);
  const std::size_t f = begin_frame(out, type, version);
  out.insert(out.end(), payload.begin(), payload.end());
  end_frame(out, f, version);
  return out;
}

// --- HELLO ---------------------------------------------------------------

void encode_hello_request_into(const HelloRequest& req,
                               std::vector<std::uint8_t>& out,
                               std::uint8_t version) {
  const std::size_t f = begin_frame(out, FrameType::kHello, version);
  put_string(out, req.agent);
  put_string(out, req.level);
  put_u16(out, req.num_tiers);
  put_u16(out, req.window);
  if (version >= 2) {
    put_u64(out, req.resume_token);
    put_u32(out, req.resume_from_window);
  }
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_hello_request(const HelloRequest& req,
                                               std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_hello_request_into(req, out, version);
  return out;
}

HelloRequest decode_hello_request(std::span<const std::uint8_t> payload,
                                  std::uint8_t version) {
  PayloadReader r(payload);
  HelloRequest req;
  req.agent = r.read_string();
  req.level = r.read_string();
  req.num_tiers = r.read_u16();
  req.window = r.read_u16();
  if (version >= 2) {
    req.resume_token = r.read_u64();
    req.resume_from_window = r.read_u32();
  }
  r.expect_done("HELLO request");
  return req;
}

void encode_hello_reply_into(const HelloReply& rep,
                             std::vector<std::uint8_t>& out,
                             std::uint8_t version) {
  const std::size_t f = begin_frame(out, FrameType::kHello, version);
  put_u8(out, rep.accepted ? 1 : 0);
  put_string(out, rep.message);
  put_u16(out, rep.num_tiers);
  put_u16(out, rep.window);
  put_u32(out, rep.model_version);
  if (rep.dims.size() > kMaxTiers)
    throw ProtocolError("wire protocol: too many tiers to encode");
  put_u16(out, static_cast<std::uint16_t>(rep.dims.size()));
  for (std::uint16_t d : rep.dims) put_u16(out, d);
  if (version >= 2) {
    put_u64(out, rep.session_token);
    put_u64(out, rep.last_applied_seq);
    put_u8(out, rep.resumed ? 1 : 0);
  }
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_hello_reply(const HelloReply& rep,
                                             std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_hello_reply_into(rep, out, version);
  return out;
}

HelloReply decode_hello_reply(std::span<const std::uint8_t> payload,
                              std::uint8_t version) {
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
  if (version >= 2) {
    rep.session_token = r.read_u64();
    rep.last_applied_seq = r.read_u64();
    rep.resumed = r.read_u8() != 0;
  }
  r.expect_done("HELLO reply");
  return rep;
}

// --- SAMPLE_BATCH --------------------------------------------------------

// hpcap-lint: hot-path
void encode_sample_batch_into(const SampleBatch& batch,
                              std::vector<std::uint8_t>& out,
                              std::uint8_t version) {
  if (batch.ticks.size() > kMaxTicksPerBatch)
    throw ProtocolError("wire protocol: too many ticks to encode");
  const std::size_t f = begin_frame(out, FrameType::kSampleBatch, version);
  if (version >= 2) put_u64(out, batch.batch_seq);
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
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_sample_batch(const SampleBatch& batch,
                                              std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_sample_batch_into(batch, out, version);
  return out;
}

// hpcap-lint: hot-path
SampleBatchView decode_sample_batch_view(
    std::span<const std::uint8_t> payload, BatchArena& arena,
    std::uint8_t version) {
  // Pass 1 — scan: validate structure and count ticks/slots/values so the
  // arena arrays can be sized exactly once (no growth reallocation, and a
  // hostile count never drives a speculative over-allocation).
  std::size_t total_slots = 0;
  std::size_t total_values = 0;
  std::uint64_t batch_seq = 0;
  std::uint32_t first_tick = 0;
  std::size_t num_ticks = 0;
  {
    PayloadReader scan(payload);
    if (version >= 2) batch_seq = scan.read_u64();
    first_tick = scan.read_u32();
    num_ticks = checked_count(scan.read_u16(), kMaxTicksPerBatch, "tick");
    for (std::size_t t = 0; t < num_ticks; ++t) {
      const std::size_t tiers =
          checked_count(scan.read_u16(), kMaxTiers, "tier");
      total_slots += tiers;
      for (std::size_t i = 0; i < tiers; ++i) {
        if (scan.read_u8() == 0) continue;
        const std::size_t dim =
            checked_count(scan.read_u16(), kMaxRowDim, "row");
        scan.skip_f64(dim);
        total_values += dim;
      }
    }
    scan.expect_done("SAMPLE_BATCH");
  }

  // Pass 2 — fill by index into the exactly-sized arena. resize() only
  // allocates until each array reaches its high-water mark; after that a
  // connection's steady-state decodes are allocation-free.
  arena.ticks_.resize(num_ticks);
  // Both counts are bounded by the scanned payload itself — every slot
  // costs at least one byte and every value eight — so neither can
  // exceed kMaxPayload regardless of what the length fields claim.
  arena.slots_.resize(total_slots);    // hpcap-lint: allow(bounded-decode)
  arena.values_.resize(total_values);  // hpcap-lint: allow(bounded-decode)
  PayloadReader r(payload);
  SampleBatchView batch;
  if (version >= 2) (void)r.read_u64();  // batch_seq, read in pass 1
  batch.first_tick = r.read_u32();
  (void)r.read_u16();  // tick count, validated in pass 1
  std::size_t slot_at = 0;
  std::size_t value_at = 0;
  for (std::size_t t = 0; t < num_ticks; ++t) {
    const std::size_t tiers = r.read_u16();
    TierSlotView* tick_slots = arena.slots_.data() + slot_at;
    for (std::size_t i = 0; i < tiers; ++i) {
      TierSlotView& slot = tick_slots[i];
      slot.present = r.read_u8() != 0;
      if (!slot.present) {
        slot.values = {};
        continue;
      }
      const std::size_t dim = r.read_u16();
      double* vals = arena.values_.data() + value_at;
      r.read_f64_array(vals, dim);
      slot.values = {vals, dim};
      value_at += dim;
    }
    arena.ticks_[t].tiers = {tick_slots, tiers};
    slot_at += tiers;
  }
  batch.ticks = {arena.ticks_.data(), num_ticks};
  batch.batch_seq = batch_seq;
  batch.first_tick = first_tick;
  return batch;
}

SampleBatch decode_sample_batch(std::span<const std::uint8_t> payload,
                                std::uint8_t version) {
  // One validation implementation: decode through a local arena, then
  // deep-copy the views into the owning struct.
  BatchArena arena;
  const SampleBatchView view = decode_sample_batch_view(payload, arena,
                                                        version);
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
void encode_decision_into(const DecisionFrame& d,
                          std::vector<std::uint8_t>& out,
                          std::uint8_t version) {
  const std::size_t f = begin_frame(out, FrameType::kDecision, version);
  put_u32(out, d.window_index);
  put_u8(out, d.state);
  put_u8(out, d.confident);
  put_u8(out, d.degraded);
  put_u8(out, 0);
  put_i32(out, d.hc);
  put_i32(out, d.bottleneck_tier);
  put_i32(out, d.staleness);
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_decision(const DecisionFrame& d,
                                          std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_decision_into(d, out, version);
  return out;
}

DecisionFrame decode_decision(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  DecisionFrame d;
  d.window_index = r.read_u32();
  d.state = r.read_u8();
  d.confident = r.read_u8();
  d.degraded = r.read_u8();
  if (r.read_u8() != 0) malformed("DECISION: nonzero reserved byte");
  d.hc = r.read_i32();
  d.bottleneck_tier = r.read_i32();
  d.staleness = r.read_i32();
  r.expect_done("DECISION");
  return d;
}

// --- ACK (v2 only) -------------------------------------------------------

void encode_ack_into(const AckFrame& ack, std::vector<std::uint8_t>& out,
                     std::uint8_t version) {
  if (version < 2)
    throw ProtocolError("wire protocol: ACK frames require protocol v2");
  const std::size_t f = begin_frame(out, FrameType::kAck, version);
  put_u64(out, ack.last_applied_seq);
  put_u32(out, ack.next_window);
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_ack(const AckFrame& ack,
                                     std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_ack_into(ack, out, version);
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

void encode_stats_request_into(std::vector<std::uint8_t>& out,
                               std::uint8_t version) {
  end_frame(out, begin_frame(out, FrameType::kStats, version), version);
}

std::vector<std::uint8_t> encode_stats_request(std::uint8_t version) {
  return encode_frame(FrameType::kStats, {}, version);
}

void encode_stats_reply_into(const StatsReply& rep,
                             std::vector<std::uint8_t>& out,
                             std::uint8_t version) {
  if (rep.entries.size() > kMaxStatsEntries)
    throw ProtocolError("wire protocol: too many stats entries to encode");
  const std::size_t f = begin_frame(out, FrameType::kStats, version);
  put_u32(out, static_cast<std::uint32_t>(rep.entries.size()));
  for (const auto& [key, value] : rep.entries) {
    put_string(out, key);
    put_u64(out, value);
  }
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& rep,
                                             std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_stats_reply_into(rep, out, version);
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
                                std::vector<std::uint8_t>& out,
                                std::uint8_t version) {
  const std::size_t f = begin_frame(out, FrameType::kReload, version);
  put_string(out, req.path);
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_reload_request(const ReloadRequest& req,
                                                std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_reload_request_into(req, out, version);
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
                              std::vector<std::uint8_t>& out,
                              std::uint8_t version) {
  const std::size_t f = begin_frame(out, FrameType::kReload, version);
  put_u8(out, rep.ok ? 1 : 0);
  put_u32(out, rep.model_version);
  put_string(out, rep.message);
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_reload_reply(const ReloadReply& rep,
                                              std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_reload_reply_into(rep, out, version);
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

std::vector<std::uint8_t> encode_shutdown(std::uint8_t version) {
  return encode_frame(FrameType::kShutdown, {}, version);
}

void encode_shutdown_into(std::vector<std::uint8_t>& out,
                          std::uint8_t version) {
  end_frame(out, begin_frame(out, FrameType::kShutdown, version), version);
}

// --- AGGREGATE -----------------------------------------------------------

namespace {

// All AGGREGATE encoders are v2-only: the frame type does not exist in
// the v1 range, so asking for a v1 encoding is a caller bug, not a
// negotiation outcome.
void check_aggregate_version(std::uint8_t version) {
  check_version(version);
  if (version < 2)
    throw ProtocolError("AGGREGATE frames require protocol v2");
}

}  // namespace

AggregateKind peek_aggregate_kind(std::span<const std::uint8_t> payload) {
  if (payload.empty()) malformed("AGGREGATE: empty payload");
  const std::uint8_t kind = payload[0];
  if (kind < 1 || kind > 3)
    malformed("AGGREGATE: unknown kind " + std::to_string(kind));
  return static_cast<AggregateKind>(kind);
}

void encode_aggregate_subscribe_into(const AggregateSubscribe& req,
                                     std::vector<std::uint8_t>& out,
                                     std::uint8_t version) {
  check_aggregate_version(version);
  if (req.synopses.size() > kMaxAggSynopses)
    throw ProtocolError("AGGREGATE: too many synopses to encode");
  const std::size_t f = begin_frame(out, FrameType::kAggregate, version);
  put_u8(out, static_cast<std::uint8_t>(AggregateKind::kSubscribe));
  put_string(out, req.leaf);
  put_u16(out, static_cast<std::uint16_t>(req.synopses.size()));
  for (const std::uint16_t s : req.synopses) put_u16(out, s);
  put_u64(out, req.resume_token);
  put_u32(out, req.resume_from_window);
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_aggregate_subscribe(
    const AggregateSubscribe& req, std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_aggregate_subscribe_into(req, out, version);
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
                                           std::vector<std::uint8_t>& out,
                                           std::uint8_t version) {
  check_aggregate_version(version);
  const std::size_t f = begin_frame(out, FrameType::kAggregate, version);
  put_u8(out, static_cast<std::uint8_t>(AggregateKind::kSubscribeReply));
  put_u8(out, rep.accepted ? 1 : 0);
  put_string(out, rep.message);
  put_u32(out, rep.model_version);
  put_u16(out, rep.num_synopses);
  put_u64(out, rep.session_token);
  put_u64(out, rep.last_applied_seq);
  put_u8(out, rep.resumed ? 1 : 0);
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_aggregate_subscribe_reply(
    const AggregateSubscribeReply& rep, std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_aggregate_subscribe_reply_into(rep, out, version);
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
                                 std::vector<std::uint8_t>& out,
                                 std::uint8_t version) {
  check_aggregate_version(version);
  if (batch.windows.size() > kMaxAggWindows)
    throw ProtocolError("AGGREGATE: too many windows to encode");
  const std::size_t f = begin_frame(out, FrameType::kAggregate, version);
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
  end_frame(out, f, version);
}

std::vector<std::uint8_t> encode_aggregate_batch(const AggregateBatch& batch,
                                                 std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_aggregate_batch_into(batch, out, version);
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

// hpcap-lint: hot-path
void FrameAssembler::append(const std::uint8_t* data, std::size_t n) {
  // All bookkeeping that moves or drops bytes happens here, never in
  // next_ref(): spans handed out since the last append stay valid until
  // this call.
  if (start_ == buf_.size()) {
    // Everything consumed: restart at the front (capacity retained).
    buf_.clear();
    start_ = 0;
  } else if (start_ > 4096 && start_ > buf_.size() / 2) {
    // Compact once the consumed prefix dominates, so the buffer does not
    // grow without bound on a long-lived connection.
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(start_));
    start_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

// hpcap-lint: hot-path
std::optional<FrameRef> FrameAssembler::next_ref() {
  const std::span<const std::uint8_t> pending(buf_.data() + start_,
                                              buf_.size() - start_);
  const auto header = peek_header(pending);
  if (!header) return std::nullopt;
  const std::size_t trailer = header->version >= 2 ? kCrcSize : 0;
  const std::size_t total = kHeaderSize + header->payload_size + trailer;
  if (pending.size() < total) return std::nullopt;
  if (trailer != 0) {
    const std::size_t body = kHeaderSize + header->payload_size;
    if (crc32(pending.first(body)) != load_le32(pending.data() + body))
      malformed("frame checksum mismatch");
  }
  FrameRef frame;
  frame.version = header->version;
  frame.type = header->type;
  frame.payload = pending.subspan(kHeaderSize, header->payload_size);
  start_ += total;
  return frame;
}

std::optional<Frame> FrameAssembler::next() {
  const auto ref = next_ref();
  if (!ref) return std::nullopt;
  Frame frame;
  frame.version = ref->version;
  frame.type = ref->type;
  frame.payload.assign(ref->payload.begin(), ref->payload.end());
  return frame;
}

}  // namespace hpcap::net

// hpcapd wire protocol — the deployable boundary of the monitor.
//
// Agents on the web/app/db tiers push 1 Hz counter samples to the
// monitoring daemon over TCP; the daemon streams per-window Decisions
// back. Frames are length-prefixed and versioned so either side can
// reject peers it does not understand instead of misreading them:
//
//   header (12 bytes, all integers little-endian on the wire):
//     u32 magic        0x48504341 ("ACPH" on the wire, "HPCA" as a word)
//     u8  version      kProtocolVersion (3); any other value is malformed
//     u8  type         FrameType
//     u16 reserved     must be 0
//     u32 payload_size <= kMaxPayload
//   payload (payload_size bytes, layout per frame type below)
//   u32 crc32 trailer over header + payload (IEEE/zlib polynomial). A
//   frame whose checksum does not match is malformed — this is what lets
//   a resilient client treat silent byte corruption like a dropped
//   connection instead of feeding garbage to the model.
//
// Encoding is explicit byte-at-a-time little-endian — no struct casts, no
// host-endianness leaks — and every decode is bounds-checked: a malformed
// frame (bad magic, unknown version/type, oversized or truncated payload,
// out-of-bounds count, checksum mismatch) throws ProtocolError and never
// reads past the buffer. Strings and repeated sections carry explicit
// counts with hard caps, so a hostile length field cannot trigger a huge
// allocation.
//
// Frame types and payloads (req = agent->daemon, rep = daemon->agent):
//
//   HELLO req:  str agent, str level("hpc"|"os"), u16 num_tiers, u16 window,
//               u64 resume_token (0 = new session),
//               u32 resume_from_window (first DECISION window the
//               client still needs when resuming)
//   HELLO rep:  u8 accepted, str message, u16 num_tiers, u16 window,
//               u32 model_version, u16 ntiers, u16 dim[ntiers],
//               u64 session_token, u64 last_applied_seq, u8 resumed
//   SAMPLE_BATCH req: u64 batch_seq (1-based, strictly increasing
//               per session), u32 first_tick, u16 tick_count, then per
//               tick: u16 tier_count, per tier: u8 present,
//               present ? (u16 dim, f64 values[dim]) : ()
//               A missing slot (present=0) maps to
//               InstanceAggregator::mark_missing — dropped read / blackout.
//   DECISION rep: one block of consecutive decided windows:
//               u32 first_window, u16 count (1..kMaxDecisionBlock), then
//               count 16-byte records, record i for window
//               first_window + i: u8 state, u8 confident, u8 degraded,
//               u8 reserved (0), i32 hc, i32 bottleneck_tier,
//               i32 staleness
//   STATS req:  empty.  STATS rep: u32 count, count x (str key, u64 value)
//   RELOAD req: str path ("" = reload the daemon's original model path)
//   RELOAD rep: u8 ok, u32 model_version, str message
//   SHUTDOWN:   empty both ways (rep is the ack; daemon then drains and
//               exits)
//   ACK rep:    u64 last_applied_seq, u32 next_window — the daemon's
//               cumulative acknowledgement; the client prunes its replay
//               buffer of SAMPLE_BATCH frames up to and including
//               last_applied_seq.
//   AGGREGATE:  the leaf->parent fleet-tree frame. First payload
//               byte is a kind discriminator:
//               kind 1 SUBSCRIBE (leaf->parent): str leaf, u16 count,
//                 count x u16 synopsis index (the global GPV bits this
//                 leaf covers), u64 resume_token, u32 resume_from_window.
//                 Replaces HELLO as the handshake of an aggregate
//                 session; resume semantics mirror HELLO's.
//               kind 2 SUBSCRIBE_REPLY (parent->leaf): u8 accepted,
//                 str message, u32 model_version, u16 num_synopses (the
//                 parent's full GPV width), u64 session_token,
//                 u64 last_applied_seq, u8 resumed.
//               kind 3 VOTES (leaf->parent): u64 agg_seq (1-based,
//                 strictly increasing per session — the aggregate twin
//                 of batch_seq, covered by the same ACK/replay
//                 machinery), u16 window_count, per window:
//                 u32 window_index, u16 n, then n cells of one byte
//                 each in the subscribed synopsis order — 0 = abstain
//                 (synopsis invalid this window), 1 = valid vote 0,
//                 2 = valid vote 1. Anything above 2 is malformed.
//               Decisions flow back as ordinary DECISION blocks carrying
//               the parent's fleet-level verdicts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hpcap::net {

inline constexpr std::uint32_t kMagic = 0x48504341u;  // "HPCA"
inline constexpr std::uint8_t kProtocolVersion = 3;
// The on-disk model bundle format the daemon loads (core/model_io.h).
inline constexpr const char* kModelFormatVersion = "v1";

inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::size_t kCrcSize = 4;  // frame trailer
inline constexpr std::size_t kMaxPayload = std::size_t{4} << 20;  // 4 MiB
// Decode-side caps: a length field above these is malformed, full stop.
inline constexpr std::size_t kMaxString = std::size_t{1} << 20;
inline constexpr std::size_t kMaxRowDim = 4096;
inline constexpr std::size_t kMaxTiers = 64;
inline constexpr std::size_t kMaxTicksPerBatch = 65535;
inline constexpr std::size_t kMaxStatsEntries = 1024;
// Fleet-tree caps: a leaf may cover at most this many GPV bits, and one
// VOTES frame may carry at most this many windows.
inline constexpr std::size_t kMaxAggSynopses = 1024;
inline constexpr std::size_t kMaxAggWindows = 4096;
// Windows one DECISION frame carries at most (core::kObserveBlock, the
// daemon's decide block), and the bytes each one takes.
inline constexpr std::size_t kMaxDecisionBlock = 32;
inline constexpr std::size_t kDecisionRecordSize = 16;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kSampleBatch = 2,
  kDecision = 3,
  kStats = 4,
  kReload = 5,
  kShutdown = 6,
  kAck = 7,
  kAggregate = 8,
};

// Discriminator in the first byte of an AGGREGATE payload.
enum class AggregateKind : std::uint8_t {
  kSubscribe = 1,
  kSubscribeReply = 2,
  kVotes = 3,
};

// Thrown on any malformed input: bad header, truncated payload, count
// above cap, trailing garbage, checksum mismatch. Catching it means
// "drop this peer".
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// CRC-32 (IEEE 802.3 / zlib polynomial, reflected) over `data`. The
// frame trailer; exposed so tests and the chaos harness can forge or
// verify frames byte-for-byte. On x86-64 CPUs with PCLMULQDQ and SSE4.1
// (detected once at startup; no build flag) the 16-byte-multiple bulk of
// any input of 64 bytes or more is folded with carry-less multiplies and
// the last 0-15 bytes go through slicing-by-8; elsewhere it is all
// slicing-by-8. Both give the same value, so the wire bytes do not depend
// on the CPU.
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;
// The same CRC-32 computed slicing-by-8 only (eight compile-time tables,
// 8 bytes per step, portable C++): the fallback, and the oracle the
// folded kernel is tested and benchmarked against.
std::uint32_t crc32_portable(std::span<const std::uint8_t> data) noexcept;

struct FrameHeader {
  FrameType type = FrameType::kHello;
  std::uint32_t payload_size = 0;
};

// Parses the 12-byte header at the front of `buffer`. Returns nullopt if
// fewer than kHeaderSize bytes are available yet; throws ProtocolError if
// the bytes are present but not a valid header.
std::optional<FrameHeader> peek_header(
    std::span<const std::uint8_t> buffer);

struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> payload;
};

// Zero-copy frame handle: `payload` points into the FrameAssembler's
// receive buffer and stays valid until the next append() on that
// assembler (decode it, or copy it out, before reading more bytes from
// the socket).
struct FrameRef {
  FrameType type = FrameType::kHello;
  std::span<const std::uint8_t> payload;
};

// --- low-level little-endian writer / bounds-checked reader -------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);  // IEEE-754 bits
// Bulk f64 encode: one append of the values' bytes on little-endian
// hosts (the wire byte order), a per-value store loop elsewhere.
// Equivalent bytes to calling put_f64 per value; the sample-batch hot
// path depends on the bulk form to keep wire CPU below the pipeline's.
void put_f64_array(std::vector<std::uint8_t>& out,
                   std::span<const double> vals);
void put_string(std::vector<std::uint8_t>& out, const std::string& s);

class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> data)
      : data_(data) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  double read_f64();
  std::string read_string();  // u32 length (<= kMaxString) + bytes

  // Skips n f64 values without materializing them (the batch scan).
  // Throws exactly like n read_f64 calls would.
  void skip_f64(std::size_t n);

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  // Throws ProtocolError if the payload has trailing bytes — a frame must
  // decode exactly.
  void expect_done(const char* what) const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Wraps an encoded payload in a framed header + CRC trailer.
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload);

// --- frame structs -------------------------------------------------------

struct HelloRequest {
  std::string agent;       // free-form agent identity (diagnostics)
  std::string level;       // "hpc" or "os"
  std::uint16_t num_tiers = 0;
  std::uint16_t window = 0;  // samples per instance for this session
  // Resume handshake; both zero on a fresh session.
  std::uint64_t resume_token = 0;
  std::uint32_t resume_from_window = 0;
};

struct HelloReply {
  bool accepted = false;
  std::string message;      // rejection reason / greeting
  std::uint16_t num_tiers = 0;
  std::uint16_t window = 0;
  std::uint32_t model_version = 0;
  std::vector<std::uint16_t> dims;  // expected row width per tier
  // Session identity: the token the client presents to resume, and
  // the highest batch_seq the daemon has fully applied for it.
  std::uint64_t session_token = 0;
  std::uint64_t last_applied_seq = 0;
  bool resumed = false;
};

// One tier's slot within a sampling tick. `present == false` models a
// dropped read or blackout tick: the slot is consumed with no data.
struct TierSlot {
  bool present = false;
  std::vector<double> values;
};

struct Tick {
  std::vector<TierSlot> tiers;
};

struct SampleBatch {
  std::uint64_t batch_seq = 0;   // 1-based per-session sequence
  std::uint32_t first_tick = 0;  // sequence number of ticks[0]
  std::vector<Tick> ticks;
};

// One decided window; a DECISION frame carries a block of them.
struct DecisionFrame {
  std::uint32_t window_index = 0;
  std::uint8_t state = 0;
  std::uint8_t confident = 0;
  std::uint8_t degraded = 0;
  std::int32_t hc = 0;
  std::int32_t bottleneck_tier = -1;
  std::int32_t staleness = 0;
};

// A decoded DECISION payload: `count` consecutive windows, records[i]
// for window records[0].window_index + i. Fixed storage, so decoding a
// block allocates nothing.
struct DecisionBlock {
  std::size_t count = 0;
  DecisionFrame records[kMaxDecisionBlock];

  // Views the records, so only on a block that outlives the view: a
  // range-for over decode_decision_block(...).decisions() would read a
  // destroyed temporary, and does not compile.
  std::span<const DecisionFrame> decisions() const& noexcept {
    return {records, count};
  }
  std::span<const DecisionFrame> decisions() const&& = delete;
};

// Cumulative acknowledgement (daemon -> agent).
struct AckFrame {
  std::uint64_t last_applied_seq = 0;
  std::uint32_t next_window = 0;  // next DECISION window the daemon emits
};

// Leaf->parent handshake of an aggregate session (AGGREGATE kind 1).
struct AggregateSubscribe {
  std::string leaf;  // free-form leaf identity (diagnostics)
  // Global GPV bit indices this leaf covers, in the order its VOTES
  // cells will arrive. Subscriptions across leaves must be disjoint.
  std::vector<std::uint16_t> synopses;
  std::uint64_t resume_token = 0;       // 0 = new subscription
  std::uint32_t resume_from_window = 0;
};

// Parent->leaf handshake reply (AGGREGATE kind 2).
struct AggregateSubscribeReply {
  bool accepted = false;
  std::string message;
  std::uint32_t model_version = 0;
  std::uint16_t num_synopses = 0;  // parent's full fleet GPV width
  std::uint64_t session_token = 0;
  std::uint64_t last_applied_seq = 0;
  bool resumed = false;
};

// One window's worth of leaf votes. votes[i]/valid[i] refer to the i-th
// subscribed synopsis; an abstaining synopsis has valid 0 and vote 0.
struct AggregateWindow {
  std::uint32_t window_index = 0;
  std::vector<int> votes;
  std::vector<std::uint8_t> valid;
};

// Leaf->parent vote stream (AGGREGATE kind 3).
struct AggregateBatch {
  std::uint64_t agg_seq = 0;  // 1-based per-session sequence
  std::vector<AggregateWindow> windows;
};

struct StatsReply {
  std::vector<std::pair<std::string, std::uint64_t>> entries;

  // Convenience lookup; returns 0 when absent.
  std::uint64_t value(const std::string& key) const;
};

struct ReloadRequest {
  std::string path;  // "" = reload the daemon's original model source
};

struct ReloadReply {
  bool ok = false;
  std::uint32_t model_version = 0;
  std::string message;
};

// --- SAMPLE_BATCH read in place -------------------------------------------

// What one structural walk of a SAMPLE_BATCH payload found.
struct SampleBatchShape {
  std::uint64_t batch_seq = 0;
  std::uint32_t first_tick = 0;
  std::size_t ticks = 0;
  std::size_t slots = 0;   // tier slots over all ticks
  std::size_t values = 0;  // f64 values over all present slots
  // The first departure from the expected shape in payload order, or
  // null: "tick tier count mismatch" or "slot width mismatch".
  const char* mismatch = nullptr;
};

// The one structural check of a SAMPLE_BATCH payload, shared by every
// decoder and by hpcapd: count caps, truncation and trailing bytes throw
// ProtocolError. It reads no sample value. With `tiers` (and `dim`)
// non-zero it also compares each tick's tier count (and each present
// slot's width) against them and reports the first mismatch in
// `mismatch` instead of throwing, so the caller decides where that check
// falls among its own (hpcapd dedups a replayed batch before judging its
// shape).
SampleBatchShape scan_sample_batch(std::span<const std::uint8_t> payload,
                                   std::size_t tiers = 0,
                                   std::size_t dim = 0);

// Walks a payload that scan_sample_batch accepted, tick by tick and slot
// by slot, in place: it neither copies nor bounds-checks (the scan did).
// Reading more ticks or slots than the scan counted is undefined.
class SampleBatchReader {
 public:
  struct Slot {
    bool present = false;
    // `dim` little-endian IEEE-754 doubles at any alignment; empty when
    // the slot is missing.
    std::span<const std::uint8_t> values;
  };

  explicit SampleBatchReader(std::span<const std::uint8_t> payload) noexcept;
  // Starts the next tick; returns its tier count.
  std::size_t next_tick() noexcept;
  // The current tick's next tier slot.
  Slot next_slot() noexcept;

 private:
  const std::uint8_t* at_;
};

// Span-based mirrors of TierSlot/Tick/SampleBatch. All spans point into
// the BatchArena passed to decode_sample_batch_view and stay valid until
// that arena's next decode (or destruction).
struct TierSlotView {
  bool present = false;
  std::span<const double> values;
};

struct TickView {
  std::span<const TierSlotView> tiers;
};

struct SampleBatchView {
  std::uint64_t batch_seq = 0;
  std::uint32_t first_tick = 0;
  std::span<const TickView> ticks;
};

// Reusable backing store for decoded SAMPLE_BATCH frames. A connection
// keeps one arena and decodes every incoming batch through it: after the
// first few frames the arrays reach their high-water size and decoding
// allocates nothing (the decoder sizes them with exact counts from a
// scan pass, never by growth).
class BatchArena {
 public:
  BatchArena() = default;

 private:
  friend SampleBatchView decode_sample_batch_view(
      std::span<const std::uint8_t> payload, BatchArena& arena);
  std::vector<double> values_;
  std::vector<TierSlotView> slots_;
  std::vector<TickView> ticks_;
};

// Decodes a SAMPLE_BATCH payload into `arena`, returning spans into it.
// Validation is scan_sample_batch's, as for decode_sample_batch.
SampleBatchView decode_sample_batch_view(
    std::span<const std::uint8_t> payload, BatchArena& arena);

// --- encode (full frame) / decode (payload only) -------------------------
//
// Every frame type has two encoders producing identical bytes: the
// `encode_*` value form returns a fresh vector; the `encode_*_into` form
// appends the framed bytes to `out` (not clearing it first), so callers
// on the hot path can reuse one scratch buffer — or pack several frames
// back to back for a single scatter-gather write.

std::vector<std::uint8_t> encode_hello_request(const HelloRequest& req);
void encode_hello_request_into(const HelloRequest& req,
                               std::vector<std::uint8_t>& out);
HelloRequest decode_hello_request(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_hello_reply(const HelloReply& rep);
void encode_hello_reply_into(const HelloReply& rep,
                             std::vector<std::uint8_t>& out);
HelloReply decode_hello_reply(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_sample_batch(const SampleBatch& batch);
void encode_sample_batch_into(const SampleBatch& batch,
                              std::vector<std::uint8_t>& out);
SampleBatch decode_sample_batch(std::span<const std::uint8_t> payload);

// One DECISION frame for `block`: 1..kMaxDecisionBlock decisions of
// consecutive windows (anything else throws ProtocolError).
void encode_decision_block_into(std::span<const DecisionFrame> block,
                                std::vector<std::uint8_t>& out);
DecisionBlock decode_decision_block(std::span<const std::uint8_t> payload);
// A single decision as a one-record block; decode_decision refuses a
// payload that carries any other count.
std::vector<std::uint8_t> encode_decision(const DecisionFrame& d);
void encode_decision_into(const DecisionFrame& d,
                          std::vector<std::uint8_t>& out);
DecisionFrame decode_decision(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_ack(const AckFrame& ack);
void encode_ack_into(const AckFrame& ack, std::vector<std::uint8_t>& out);
AckFrame decode_ack(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_stats_request();
void encode_stats_request_into(std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> encode_stats_reply(const StatsReply& rep);
void encode_stats_reply_into(const StatsReply& rep,
                             std::vector<std::uint8_t>& out);
StatsReply decode_stats_reply(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_reload_request(const ReloadRequest& req);
void encode_reload_request_into(const ReloadRequest& req,
                                std::vector<std::uint8_t>& out);
ReloadRequest decode_reload_request(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_reload_reply(const ReloadReply& rep);
void encode_reload_reply_into(const ReloadReply& rep,
                              std::vector<std::uint8_t>& out);
ReloadReply decode_reload_reply(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_shutdown();
void encode_shutdown_into(std::vector<std::uint8_t>& out);

// peek_aggregate_kind reads the discriminator byte so a dispatcher can
// route the payload; each decoder re-checks it.
AggregateKind peek_aggregate_kind(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_aggregate_subscribe(
    const AggregateSubscribe& req);
void encode_aggregate_subscribe_into(
    const AggregateSubscribe& req, std::vector<std::uint8_t>& out);
AggregateSubscribe decode_aggregate_subscribe(
    std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_aggregate_subscribe_reply(
    const AggregateSubscribeReply& rep);
void encode_aggregate_subscribe_reply_into(
    const AggregateSubscribeReply& rep, std::vector<std::uint8_t>& out);
AggregateSubscribeReply decode_aggregate_subscribe_reply(
    std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_aggregate_batch(const AggregateBatch& batch);
void encode_aggregate_batch_into(const AggregateBatch& batch,
                                 std::vector<std::uint8_t>& out);
AggregateBatch decode_aggregate_batch(std::span<const std::uint8_t> payload);

// --- incremental stream parsing ------------------------------------------

// Accumulates raw socket bytes and yields complete frames. Throws
// ProtocolError from next()/next_ref() on malformed input (the caller
// should then drop the connection — after a framing error the stream
// position is unrecoverable). Frames are checksum-verified here, so
// every payload a decoder sees has already survived the CRC.
//
// next_ref() is the zero-copy form: the returned FrameRef's payload is a
// span into the receive buffer, valid across further next_ref() calls
// but invalidated by the next append() or prepare(). next() copies the
// payload out and has no lifetime string attached.
//
// prepare()/commit() read in place: a socket reader receives straight
// into the buffer's free tail instead of into a buffer of its own that
// append() would copy again.
class FrameAssembler {
 public:
  FrameAssembler() = default;
  FrameAssembler(FrameAssembler&& other) noexcept;
  FrameAssembler& operator=(FrameAssembler&& other) noexcept;

  void append(const std::uint8_t* data, std::size_t n);
  // Free space for at least `min` more bytes after the buffered ones
  // (compacting or growing first). It is not zero-filled. Write into it,
  // then commit() the count actually written.
  std::span<std::uint8_t> prepare(std::size_t min);
  void commit(std::size_t n) noexcept { end_ += n; }
  std::optional<Frame> next();
  std::optional<FrameRef> next_ref();
  std::size_t buffered() const noexcept { return end_ - start_; }

 private:
  // buf_[start_, end_) is buffered; the vector only ever grows, so its
  // size is the capacity and bytes past end_ are scratch.
  std::vector<std::uint8_t> buf_;
  std::size_t start_ = 0;
  std::size_t end_ = 0;
};

}  // namespace hpcap::net

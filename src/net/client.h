// Client side of the hpcapd wire protocol — what a tier agent (or
// `hpcapctl stream`) links against.
//
// One blocking TCP connection, synchronous round-trips for control
// frames, and a local buffer for DECISION frames that arrive interleaved
// with control replies (the daemon streams decisions as windows close,
// regardless of what else is in flight). Single-threaded use only.
//
// Resilience (set_retry_policy): the client keeps every
// SAMPLE_BATCH in a bounded replay buffer until the daemon's cumulative
// ACK covers its sequence number. When the connection dies — reset, EOF,
// checksum mismatch, garbage — any blocking operation transparently
// reconnects under the RetryPolicy's backoff/deadline budget, re-sends
// HELLO with the session's resume token, prunes the replay buffer to the
// daemon's last-applied sequence, and retransmits the rest. The daemon
// dedups by sequence and replays missed DECISIONs, and the client drops
// DECISION windows it has already seen — so the decision stream the
// caller observes is bit-identical to a run with no failures at all.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/retry.h"

namespace hpcap::net {

// Connection-level failure: refused/reset/EOF/unreachable. Distinct from
// ProtocolError (malformed bytes) and from plain std::runtime_error
// (caller-visible timeouts) so callers — hpcapctl's exit codes, the
// resilience layer — can tell "the wire broke" from "the peer is wrong".
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The daemon refused to resume the session (token expired or unknown).
// Retrying cannot help; the session's continuity guarantee is gone.
class SessionLost : public TransportError {
 public:
  using TransportError::TransportError;
};

class Client {
 public:
  // Resilience bookkeeping, exposed for tests/benches.
  struct SessionInfo {
    std::uint64_t token = 0;          // daemon-issued resume token
    std::uint64_t next_seq = 1;       // seq the next send_batch will carry
    std::uint64_t acked_seq = 0;      // daemon's cumulative acknowledgement
    std::uint32_t next_window = 0;    // next DECISION window expected
    std::uint64_t reconnects = 0;     // successful recoveries
    std::uint64_t replayed_batches = 0;
    std::uint64_t deduped_decisions = 0;  // replayed DECISIONs dropped
    std::size_t pending_batches = 0;  // replay buffer occupancy
    double last_recovery_seconds = 0.0;
    double total_recovery_seconds = 0.0;
  };

  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  // Enables auto-reconnect + session resume on every blocking operation.
  // Pass RetryPolicy::none() to disable again.
  void set_retry_policy(const RetryPolicy& policy);

  // Replay-buffer bound: send_batch blocks for ACK progress once this
  // many batches are unacknowledged (default 64; minimum 1).
  void set_max_pending_batches(std::size_t n);

  SessionInfo session() const noexcept;

  // Throws TransportError on refusal/timeout. Every timeout_seconds
  // below saturates at INT_MAX milliseconds (~24.8 days) — pass a huge
  // value for "effectively forever" — and NaN or non-positive values
  // mean a zero-wait poll (an immediate timeout if nothing is pending).
  void connect(const std::string& host, std::uint16_t port,
               double timeout_seconds = 5.0);
  void close();
  bool connected() const noexcept { return fd_ >= 0; }

  // Handshake round-trip. Throws ProtocolError on a malformed reply and
  // TransportError on transport failure; a *rejected* hello returns
  // normally with accepted == false so the caller can report the reason.
  // The reply carries the session token the client will present to
  // resume; a request with resume_token != 0 asks to resume explicitly
  // (normally the client fills that in itself during recovery).
  HelloReply hello(const HelloRequest& req, double timeout_seconds = 10.0);

  // Aggregate (leaf->parent) mode. The SUBSCRIBE handshake replaces
  // HELLO for this session: the reply carries the same session token /
  // last-applied-seq resume contract, and every recovery re-subscribes
  // instead of re-HELLOing. A *rejected* subscription returns normally
  // with accepted == false.
  AggregateSubscribeReply aggregate_subscribe(const AggregateSubscribe& req,
                                              double timeout_seconds = 10.0);

  // Ships one VOTES batch; stamps batch.agg_seq with the session's next
  // sequence number and retains the frame until the parent's cumulative
  // ACK covers it — the exact send_batch replay contract, shared
  // sequence space. Fleet decisions arrive as ordinary DECISION frames
  // (drain_decisions / next_decision).
  void send_aggregate(AggregateBatch& batch);

  // Ships one batch of sampling ticks (blocking write). The client
  // stamps batch.batch_seq with the session's next sequence number and
  // retains the encoded frame until the daemon acknowledges it. Encodes
  // into a member scratch buffer, so a steady-state streaming loop
  // performs no allocation once buffers reach their high-water sizes
  // (the replay buffer recycles popped slots).
  void send_batch(SampleBatch& batch);

  // All decisions that have already arrived, without blocking.
  std::vector<DecisionFrame> drain_decisions();
  // Blocks until the next DECISION (buffered ones first). Throws
  // std::runtime_error on timeout and TransportError on connection loss.
  DecisionFrame next_decision(double timeout_seconds = 10.0);

  // Control round-trips; DECISION frames arriving first are buffered.
  StatsReply stats(double timeout_seconds = 10.0);
  ReloadReply reload(const std::string& path = "",
                     double timeout_seconds = 30.0);
  // Requests daemon shutdown and waits for the ack. Never retried.
  void shutdown_server(double timeout_seconds = 10.0);

 private:
  struct PendingBatch {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;  // full encoded frame
  };

  void send_all(std::span<const std::uint8_t> bytes);
  // Reads until a frame of `want` arrives (buffering DECISIONs and
  // consuming ACKs), or throws on timeout/disconnect.
  Frame await_frame(FrameType want, double timeout_seconds);
  // Pulls whatever is readable into the assembler. Returns 1 on
  // progress, 0 on timeout, -1 on EOF.
  int fill(double timeout_seconds);
  // Drains complete frames from the assembler into decisions_ (zero-copy
  // decode); throws ProtocolError on an unexpected frame type.
  void buffer_decisions();
  // Dedup + ordering gate for one received DECISION.
  void on_decision(const DecisionFrame& d);
  void on_ack(const AckFrame& ack);
  // Sends HELLO from hello_req_ (+ resume token), applies the
  // reply's session bookkeeping, and retransmits unacked batches.
  HelloReply handshake(double timeout_seconds);
  // Full outage recovery: reconnect + resume under `backoff`/deadline.
  void recover(Backoff& backoff, double give_up_at);
  // Runs op(); on transport/protocol failure with a retry policy set,
  // recovers the session and runs it again (bounded by the policy).
  template <typename Op>
  auto with_resilience(Op&& op) -> decltype(op());
  // Blocks until the replay buffer has room (processing ACKs).
  void ensure_pending_space();

  int fd_ = -1;
  FrameAssembler assembler_;
  std::deque<DecisionFrame> decisions_;
  std::vector<std::uint8_t> send_scratch_;  // send_batch encode buffer

  RetryPolicy policy_ = RetryPolicy::none();
  std::string host_;
  std::uint16_t port_ = 0;
  double connect_timeout_ = 5.0;
  bool hello_done_ = false;
  HelloRequest hello_req_;
  HelloReply last_hello_reply_;
  double hello_timeout_ = 10.0;
  bool aggregate_ = false;  // handshake() sends SUBSCRIBE, not HELLO
  AggregateSubscribe agg_req_;
  AggregateSubscribeReply last_agg_reply_;

  std::uint64_t session_token_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t acked_seq_ = 0;
  std::uint32_t next_window_ = 0;
  std::size_t max_pending_ = 64;
  std::deque<PendingBatch> pending_;
  std::vector<std::vector<std::uint8_t>> pending_spares_;  // recycled slots
  std::uint64_t reconnects_ = 0;
  std::uint64_t replayed_batches_ = 0;
  std::uint64_t deduped_decisions_ = 0;
  double last_recovery_seconds_ = 0.0;
  double total_recovery_seconds_ = 0.0;
  double last_rx_ = 0.0;  // monotonic time of the last inbound byte
};

}  // namespace hpcap::net

#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "net/posix_io.h"

namespace hpcap::net {

namespace {

// ::poll takes int milliseconds; the raw double→int cast is undefined
// once timeout_seconds*1000 leaves int's range, and the value arrives
// from caller/CLI flags (anything over ~24.8 days used to be UB).
// Saturate at INT_MAX ms; NaN and non-positive values poll with zero
// wait so the caller's deadline loop stays in charge.
int poll_timeout_ms(double timeout_seconds) {
  const double ms = timeout_seconds * 1000.0;
  if (!(ms > 0.0)) return 0;
  if (ms >= static_cast<double>(std::numeric_limits<int>::max()))
    return std::numeric_limits<int>::max();
  return static_cast<int>(ms);
}

// Caller-visible timeout: the daemon is reachable but slow. Plain
// runtime_error — the resilience layer does not reconnect on these.
[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("net::Client: " + what);
}

// Bytes asked of each recv (the assembler keeps this much free space).
constexpr std::size_t kReadChunk = 65536;

// The wire itself broke (refused/reset/EOF). Resilience reconnects.
[[noreturn]] void fail_transport(const std::string& what) {
  throw TransportError("net::Client: " + what);
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      assembler_(std::move(other.assembler_)),
      decisions_(std::move(other.decisions_)),
      policy_(other.policy_),
      host_(std::move(other.host_)),
      port_(other.port_),
      connect_timeout_(other.connect_timeout_),
      hello_done_(other.hello_done_),
      hello_req_(std::move(other.hello_req_)),
      last_hello_reply_(std::move(other.last_hello_reply_)),
      hello_timeout_(other.hello_timeout_),
      aggregate_(other.aggregate_),
      agg_req_(std::move(other.agg_req_)),
      last_agg_reply_(std::move(other.last_agg_reply_)),
      session_token_(other.session_token_),
      next_seq_(other.next_seq_),
      acked_seq_(other.acked_seq_),
      next_window_(other.next_window_),
      max_pending_(other.max_pending_),
      pending_(std::move(other.pending_)),
      pending_spares_(std::move(other.pending_spares_)),
      reconnects_(other.reconnects_),
      replayed_batches_(other.replayed_batches_),
      deduped_decisions_(other.deduped_decisions_),
      last_recovery_seconds_(other.last_recovery_seconds_),
      total_recovery_seconds_(other.total_recovery_seconds_) {
  other.fd_ = -1;
}

void Client::set_retry_policy(const RetryPolicy& policy) {
  policy_ = policy;
}

void Client::set_max_pending_batches(std::size_t n) {
  max_pending_ = std::max<std::size_t>(n, 1);
}

Client::SessionInfo Client::session() const noexcept {
  SessionInfo info;
  info.token = session_token_;
  info.next_seq = next_seq_;
  info.acked_seq = acked_seq_;
  info.next_window = next_window_;
  info.reconnects = reconnects_;
  info.replayed_batches = replayed_batches_;
  info.deduped_decisions = deduped_decisions_;
  info.pending_batches = pending_.size();
  info.last_recovery_seconds = last_recovery_seconds_;
  info.total_recovery_seconds = total_recovery_seconds_;
  return info;
}

void Client::connect(const std::string& host, std::uint16_t port,
                     double timeout_seconds) {
  if (fd_ >= 0) fail_transport("already connected");
  host_ = host;
  port_ = port;
  connect_timeout_ = timeout_seconds;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_transport(std::string("socket: ") + std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    fail_transport("bad host address '" + host +
                   "' (use a dotted IPv4 address)");
  }

  // Nonblocking connect so the timeout is honored.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    fail_transport(std::string("connect: ") + std::strerror(err));
  }
  if (rc != 0) {
    pollfd p{fd, POLLOUT, 0};
    const int ready = io::poll_retry(&p, 1, poll_timeout_ms(timeout_seconds));
    int soerr = 0;
    socklen_t len = sizeof soerr;
    if (ready > 0)
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (ready <= 0 || soerr != 0) {
      ::close(fd);
      fail_transport(ready <= 0
                         ? "connect timed out"
                         : std::string("connect: ") + std::strerror(soerr));
    }
  }
  // Back to blocking for writes; reads poll() explicitly.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  // A fresh connection starts the ACK-silence clock from now, not from
  // whatever the previous connection last received.
  last_rx_ = io::monotonic_seconds();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send_all(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) fail_transport("not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = io::send_retry(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) fail_transport(std::string("send: ") + std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
}

int Client::fill(double timeout_seconds) {
  if (fd_ < 0) fail_transport("not connected");
  double budget = timeout_seconds;
  // ACK-silence watchdog: unacknowledged batches plus a quiet wire is
  // the signature of a truncated tail (the daemon is stuck on a partial
  // frame and will never respond). No inbound byte can arrive to expose
  // it, so a timer has to — the forced reconnect below resumes the
  // session and retransmits the pending batches, and daemon-side dedup
  // keeps delivery exactly-once.
  const bool watch_acks = policy_.enabled() && policy_.ack_timeout > 0.0 &&
                          !pending_.empty();
  if (watch_acks) {
    const double silent_left =
        policy_.ack_timeout - (io::monotonic_seconds() - last_rx_);
    if (!(silent_left > 0.0))
      fail_transport("no bytes from the daemon with " +
                     std::to_string(pending_.size()) +
                     " unacknowledged batches; retransmitting");
    budget = std::min(budget, silent_left);
  }
  pollfd p{fd_, POLLIN, 0};
  const int ready = io::poll_retry(&p, 1, poll_timeout_ms(budget));
  if (ready < 0) fail_transport(std::string("poll: ") + std::strerror(errno));
  if (ready == 0) return 0;
  const std::span<std::uint8_t> room = assembler_.prepare(kReadChunk);
  const ssize_t n = io::recv_retry(fd_, room.data(), room.size(), 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 1;
    fail_transport(std::string("recv: ") + std::strerror(errno));
  }
  if (n == 0) return -1;
  assembler_.commit(static_cast<std::size_t>(n));
  last_rx_ = io::monotonic_seconds();
  return 1;
}

void Client::on_ack(const AckFrame& ack) {
  if (ack.last_applied_seq > acked_seq_) acked_seq_ = ack.last_applied_seq;
  while (!pending_.empty() && pending_.front().seq <= acked_seq_) {
    if (pending_spares_.size() < 8) {
      pending_.front().bytes.clear();
      pending_spares_.push_back(std::move(pending_.front().bytes));
    }
    pending_.pop_front();
  }
}

void Client::on_decisions(std::span<const std::uint8_t> payload) {
  const DecisionBlock block = decode_decision_block(payload);
  for (const DecisionFrame& d : block.decisions()) on_decision(d);
}

void Client::on_decision(const DecisionFrame& d) {
  if (d.window_index < next_window_) {
    // A replayed window the client already delivered: exactly-once on
    // the receive side is this drop.
    ++deduped_decisions_;
    return;
  }
  if (d.window_index > next_window_)
    throw ProtocolError("net::Client: decision stream gap: got window " +
                        std::to_string(d.window_index) + ", expected " +
                        std::to_string(next_window_));
  ++next_window_;
  decisions_.push_back(d);
}

Frame Client::await_frame(FrameType want, double timeout_seconds) {
  const double deadline = io::monotonic_seconds() + timeout_seconds;
  for (;;) {  // bounded by `deadline` below
    while (auto frame = assembler_.next_ref()) {
      if (frame->type == FrameType::kDecision) {
        // DECISIONs decode straight off the receive buffer — no payload
        // copy for the frames that dominate a streaming session.
        on_decisions(frame->payload);
        continue;
      }
      if (frame->type == FrameType::kAck) {
        on_ack(decode_ack(frame->payload));
        continue;
      }
      if (frame->type != want)
        throw ProtocolError("net::Client: unexpected frame type");
      // Control replies are rare; copy the payload out so the caller
      // owns it independent of the assembler's buffer.
      return Frame{frame->type,
                   std::vector<std::uint8_t>(frame->payload.begin(),
                                             frame->payload.end())};
    }
    // !(left > 0) rather than (left <= 0): a NaN timeout must degrade to
    // an immediate "timed out", not an unbounded spin.
    const double left = deadline - io::monotonic_seconds();
    if (!(left > 0.0)) fail("timed out waiting for the daemon");
    const int rc = fill(left);
    if (rc < 0) fail_transport("daemon closed the connection");
  }
}

HelloReply Client::handshake(double timeout_seconds) {
  HelloReply rep;
  if (aggregate_) {
    // Aggregate sessions handshake with SUBSCRIBE; the reply is mapped
    // onto HelloReply so the shared resume bookkeeping below (and
    // recover()'s accepted check) applies unchanged.
    AggregateSubscribe areq = agg_req_;
    areq.resume_token = session_token_;
    areq.resume_from_window = next_window_;
    send_all(encode_aggregate_subscribe(areq));
    const Frame aframe = await_frame(FrameType::kAggregate, timeout_seconds);
    if (peek_aggregate_kind(aframe.payload) !=
        AggregateKind::kSubscribeReply)
      throw ProtocolError(
          "net::Client: expected SUBSCRIBE_REPLY from the parent");
    last_agg_reply_ = decode_aggregate_subscribe_reply(aframe.payload);
    rep.accepted = last_agg_reply_.accepted;
    rep.message = last_agg_reply_.message;
    rep.model_version = last_agg_reply_.model_version;
    rep.session_token = last_agg_reply_.session_token;
    rep.last_applied_seq = last_agg_reply_.last_applied_seq;
    rep.resumed = last_agg_reply_.resumed;
    if (!rep.accepted) return rep;
  } else {
    HelloRequest req = hello_req_;
    req.resume_token = session_token_;
    req.resume_from_window = next_window_;
    send_all(encode_hello_request(req));
    const Frame frame = await_frame(FrameType::kHello, timeout_seconds);
    rep = decode_hello_reply(frame.payload);
    if (!rep.accepted) return rep;
  }
  hello_done_ = true;
  last_hello_reply_ = rep;
  session_token_ = rep.session_token;
  // The daemon's last-applied sequence is a cumulative ACK: prune the
  // replay buffer to it, then retransmit whatever it has not applied.
  AckFrame ack;
  ack.last_applied_seq = rep.last_applied_seq;
  on_ack(ack);
  next_seq_ = std::max(next_seq_, rep.last_applied_seq + 1);
  for (const PendingBatch& p : pending_) {
    send_all(p.bytes);
    ++replayed_batches_;
  }
  return rep;
}

void Client::recover(Backoff& backoff, double give_up_at) {
  if (!hello_done_ && host_.empty())
    fail_transport("cannot recover a session that never connected");
  const double outage_start = io::monotonic_seconds();
  close();
  assembler_ = FrameAssembler{};
  // Bounded three ways: the policy's attempt cap (backoff.exhausted),
  // its per-outage deadline budget (give_up_at), and the jittered
  // exponential delay between attempts.
  for (;;) {
    if (backoff.exhausted())
      fail_transport("reconnect attempts exhausted after " +
                     std::to_string(backoff.attempts()) + " tries");
    const double delay = backoff.next_delay();
    if (io::monotonic_seconds() + delay >= give_up_at)
      fail_transport("reconnect deadline budget exhausted");
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    try {
      connect(host_, port_, connect_timeout_);
      const HelloReply rep = handshake(hello_timeout_);
      if (!rep.accepted) {
        close();
        throw SessionLost("net::Client: daemon refused to resume session: " +
                          rep.message);
      }
      ++reconnects_;
      last_recovery_seconds_ = io::monotonic_seconds() - outage_start;
      total_recovery_seconds_ += last_recovery_seconds_;
      return;
    } catch (const SessionLost&) {
      throw;
    } catch (const std::runtime_error&) {
      // Covers TransportError, ProtocolError and handshake timeouts: the
      // attempt failed; reset the socket and let the schedule decide.
      close();
      assembler_ = FrameAssembler{};
    }
  }
}

template <typename Op>
auto Client::with_resilience(Op&& op) -> decltype(op()) {
  if (!policy_.enabled()) return op();
  Backoff backoff(policy_, session_token_);
  const double give_up_at = io::monotonic_seconds() + policy_.deadline;
  for (;;) {  // bounded by the RetryPolicy budget enforced in recover()
    try {
      return op();
    } catch (const SessionLost&) {
      throw;
    } catch (const TransportError&) {
      recover(backoff, give_up_at);
    } catch (const ProtocolError&) {
      // Includes checksum mismatches and decision-stream gaps: the byte
      // stream is unrecoverable in place, but a resume replays exactly
      // the state both sides agree on.
      recover(backoff, give_up_at);
    }
  }
}

HelloReply Client::hello(const HelloRequest& req, double timeout_seconds) {
  aggregate_ = false;
  hello_req_ = req;
  hello_timeout_ = timeout_seconds;
  // An explicit hello() (re)starts the logical session: resume identity
  // comes from the request, not from any prior session on this object.
  session_token_ = req.resume_token;
  next_window_ = req.resume_from_window;
  hello_done_ = false;
  if (!policy_.enabled()) return handshake(timeout_seconds);
  try {
    return handshake(timeout_seconds);
  } catch (const SessionLost&) {
    throw;
  } catch (const TransportError&) {
  } catch (const ProtocolError&) {
  }
  Backoff backoff(policy_, session_token_);
  recover(backoff, io::monotonic_seconds() + policy_.deadline);
  // recover() completed the handshake; hand back the reply it recorded
  // (dims/model_version intact for the caller's batch construction).
  return last_hello_reply_;
}

AggregateSubscribeReply Client::aggregate_subscribe(
    const AggregateSubscribe& req, double timeout_seconds) {
  aggregate_ = true;
  agg_req_ = req;
  hello_timeout_ = timeout_seconds;
  // Like hello(): an explicit subscribe (re)starts the logical session;
  // resume identity comes from the request.
  session_token_ = req.resume_token;
  next_window_ = req.resume_from_window;
  hello_done_ = false;
  if (!policy_.enabled()) {
    handshake(timeout_seconds);
    return last_agg_reply_;
  }
  try {
    handshake(timeout_seconds);
    return last_agg_reply_;
  } catch (const SessionLost&) {
    throw;
  } catch (const TransportError&) {
  } catch (const ProtocolError&) {
  }
  Backoff backoff(policy_, session_token_);
  recover(backoff, io::monotonic_seconds() + policy_.deadline);
  return last_agg_reply_;
}

void Client::send_aggregate(AggregateBatch& batch) {
  if (batch.agg_seq == 0) batch.agg_seq = next_seq_;
  next_seq_ = std::max(next_seq_, batch.agg_seq + 1);
  send_sequenced(batch.agg_seq, [&](std::vector<std::uint8_t>& out) {
    encode_aggregate_batch_into(batch, out);
  });
}

template <typename Encode>
void Client::send_sequenced(std::uint64_t seq, Encode encode) {
  bool recorded = false;
  with_resilience([&] {
    ensure_pending_space();
    if (!recorded) {
      // Encode straight into the replay entry (a recycled one once the
      // buffer has warmed up) and send from it: one encode, no copy.
      PendingBatch p;
      p.seq = seq;
      if (!pending_spares_.empty()) {
        p.bytes = std::move(pending_spares_.back());
        pending_spares_.pop_back();
      }
      encode(p.bytes);
      pending_.push_back(std::move(p));
      recorded = true;
      send_all(pending_.back().bytes);
      return;
    }
    // A retry after recovery. handshake() has already retransmitted the
    // frame if the daemon had not applied it; it goes out once more, and
    // the daemon dedups it by sequence. If the daemon had applied it, its
    // ACK pruned the entry, so the frame is encoded again.
    if (!pending_.empty() && pending_.back().seq == seq) {
      send_all(pending_.back().bytes);
      return;
    }
    std::vector<std::uint8_t> again;
    encode(again);
    send_all(again);
  });
}

void Client::ensure_pending_space() {
  if (pending_.size() < max_pending_) return;
  const double give_up_at =
      io::monotonic_seconds() + (policy_.enabled() ? policy_.deadline : 30.0);
  // Bounded by the deadline budget computed above.
  while (pending_.size() >= max_pending_) {
    buffer_decisions();  // processes any ACKs already buffered
    if (pending_.size() < max_pending_) break;
    const double left = give_up_at - io::monotonic_seconds();
    if (left <= 0.0)
      fail_transport("replay buffer full and the daemon is not ACKing");
    const int rc = fill(left);
    if (rc < 0) fail_transport("daemon closed the connection");
  }
}

void Client::send_batch(SampleBatch& batch) {
  if (batch.batch_seq == 0) batch.batch_seq = next_seq_;
  next_seq_ = std::max(next_seq_, batch.batch_seq + 1);
  send_sequenced(batch.batch_seq, [&](std::vector<std::uint8_t>& out) {
    encode_sample_batch_into(batch, out);
  });
}

void Client::buffer_decisions() {
  while (auto frame = assembler_.next_ref()) {
    if (frame->type == FrameType::kAck) {
      on_ack(decode_ack(frame->payload));
      continue;
    }
    if (frame->type != FrameType::kDecision)
      throw ProtocolError("net::Client: unexpected frame type");
    on_decisions(frame->payload);
  }
}

std::vector<DecisionFrame> Client::drain_decisions() {
  // Pull in whatever the kernel already has, without blocking.
  with_resilience([&] {
    if (fd_ >= 0) {
      pollfd p{fd_, POLLIN, 0};
      while (io::poll_retry(&p, 1, 0) > 0 && (p.revents & POLLIN)) {
        const std::span<std::uint8_t> room = assembler_.prepare(kReadChunk);
        const ssize_t n = io::recv_retry(fd_, room.data(), room.size(), 0);
        // EOF must escalate, not be swallowed: a drain that shrugs off a
        // dead socket leaves the outage undetected until the next
        // blocking read, and the replay buffer grows the whole time.
        if (n == 0) fail_transport("daemon closed the connection");
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          fail_transport(std::string("recv: ") + std::strerror(errno));
        }
        assembler_.commit(static_cast<std::size_t>(n));
        last_rx_ = io::monotonic_seconds();
        if (static_cast<std::size_t>(n) < room.size()) break;
      }
      buffer_decisions();
    }
    return 0;
  });
  std::vector<DecisionFrame> out(decisions_.begin(), decisions_.end());
  decisions_.clear();
  return out;
}

DecisionFrame Client::next_decision(double timeout_seconds) {
  return with_resilience([&] {
    const double deadline = io::monotonic_seconds() + timeout_seconds;
    for (;;) {  // bounded by `deadline` below
      if (!decisions_.empty()) {
        DecisionFrame d = decisions_.front();
        decisions_.pop_front();
        return d;
      }
      buffer_decisions();
      if (!decisions_.empty()) continue;
      const double left = deadline - io::monotonic_seconds();
      if (!(left > 0.0)) fail("timed out waiting for a decision");
      const int rc = fill(left);
      if (rc < 0) fail_transport("daemon closed the connection");
    }
  });
}

StatsReply Client::stats(double timeout_seconds) {
  return with_resilience([&] {
    send_all(encode_stats_request());
    const Frame frame = await_frame(FrameType::kStats, timeout_seconds);
    return decode_stats_reply(frame.payload);
  });
}

ReloadReply Client::reload(const std::string& path,
                           double timeout_seconds) {
  return with_resilience([&] {
    ReloadRequest req;
    req.path = path;
    send_all(encode_reload_request(req));
    const Frame frame = await_frame(FrameType::kReload, timeout_seconds);
    return decode_reload_reply(frame.payload);
  });
}

void Client::shutdown_server(double timeout_seconds) {
  // Deliberately not resilient: re-sending SHUTDOWN to a daemon that is
  // already draining would race its exit.
  send_all(encode_shutdown());
  (void)await_frame(FrameType::kShutdown, timeout_seconds);
}

}  // namespace hpcap::net

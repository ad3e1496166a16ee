#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/stream.h"
#include "ctrl/admission.h"
#include "counters/metric_catalog.h"
#include "net/aggregate.h"
#include "net/posix_io.h"
#include "net/sharded.h"
#include "util/log.h"
#include "util/rng.h"

namespace hpcap::net {

namespace {

void set_nonblocking_cloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
}

std::size_t level_dim(const std::string& level) {
  if (level == "hpc") return counters::hpc_catalog().size();
  if (level == "os") return counters::os_catalog().size();
  return 0;
}

// Frames covered by one scatter-gather ::sendmsg.
constexpr std::size_t kMaxIov = 64;

// Recycled outbound encode buffers kept per connection: one full
// sendmsg's worth, so a wakeup's decisions + ACK never allocate.
constexpr std::size_t kSparePool = kMaxIov;

// Cadence of the cross-shard resume retry timer, and the slice of the
// handshake budget a deferred resume may wait for its eviction to land.
constexpr double kResumeRetryPeriod = 0.01;
constexpr double kResumeDeferCap = 2.0;

}  // namespace

// The stream state of one agent session: its sampling pipeline plus the
// exactly-once bookkeeping. Owned by a Connection while its socket is
// up; detaches into the ShardGroup's linger directory when its peer
// vanishes so a reconnecting client can resume it — on any reactor.
struct SessionState {
  std::uint64_t token = 0;  // resume identity, never 0
  std::string agent;
  std::string level;
  std::uint16_t window = 0;
  std::uint32_t model_version = 0;
  // Slots -> windows -> validation -> batched decide (core/stream.h).
  std::optional<core::StreamPipeline> pipeline;
  // Zero-copy SAMPLE_BATCH decode backing store; reaches its high-water
  // size after a few frames and then decodes allocation-free.
  BatchArena arena;
  std::uint32_t window_index = 0;  // index of the next decided window
  // Leaf mode: the coverage-order slice of one window's GPV, as the
  // uplink's offer() wants it; sized at HELLO when an uplink is set.
  std::vector<int> uplink_votes;
  std::vector<std::uint8_t> uplink_valid;

  // Aggregate (parent-side) sessions carry no sampling pipeline at all:
  // their stream state is the FleetAggregator subscription identified by
  // `token` plus the ordinary replay ring below, which retains fleet
  // DECISIONs exactly like a leaf session retains its own.
  bool aggregate = false;
  std::vector<std::uint16_t> coverage;  // subscribed synopsis indices

  // Exactly-once state: highest batch sequence applied (cumulative —
  // anything at or below it is a replay and is deduped), plus the
  // retained-DECISION ring for resume replay: `replay` is reserved to the
  // ring's capacity at HELLO, grows to it, then is overwritten in place
  // from replay_head (the oldest retained decision).
  // replay_first_window is the window_index of that oldest decision.
  std::uint64_t last_applied_seq = 0;
  std::vector<DecisionFrame> replay;
  std::size_t replay_head = 0;
  std::uint32_t replay_first_window = 0;
  double detached_at = 0.0;  // linger clock; set when parked

  // Retains a decided window for resume replay, keeping the newest
  // `capacity` of them.
  // hpcap-lint: hot-path
  void record(const DecisionFrame& d, std::size_t capacity) {
    if (replay.size() < capacity) {
      // Within the capacity reserved at HELLO: no reallocation.
      replay.push_back(d);  // hpcap-lint: allow(hot-path-alloc)
    } else {
      replay[replay_head] = d;
      if (++replay_head == replay.size()) replay_head = 0;
      ++replay_first_window;
    }
    window_index = d.window_index + 1;
  }

  // The i-th oldest retained decision (window replay_first_window + i).
  const DecisionFrame& replayed(std::size_t i) const {
    return replay[(replay_head + i) % replay.size()];
  }
};

// One agent connection: the socket half of a session. Before HELLO it is
// just a socket with deadlines; after HELLO it owns (or, on resume,
// readopts) a SessionState.
struct Server::Connection {
  enum class State { kAwaitHello, kStreaming };

  int fd = -1;
  State state = State::kAwaitHello;
  double created = 0.0;
  double last_activity = 0.0;
  FrameAssembler assembler;

  struct OutFrame {
    FrameType type;
    std::vector<std::uint8_t> bytes;
    std::size_t offset = 0;
  };
  std::deque<OutFrame> write_queue;
  // Fully-sent (or shed) frame buffers, cleared but with capacity intact,
  // waiting to be reused by the next encode (bounded by kSparePool).
  std::vector<std::vector<std::uint8_t>> spares;
  bool want_write = false;
  bool close_after_flush = false;
  // Marked dead (send failure, queue overflow, flushed close) but not yet
  // destroyed: handlers up the stack may still hold references, so the
  // actual close is deferred to handle_io. doom_reason is always a
  // string literal.
  bool doomed = false;
  const char* doom_reason = "";
  std::uint64_t sheds = 0;  // for the rate-limited shed warning

  std::unique_ptr<SessionState> session;  // valid once state == kStreaming

  // Resume replay cursor: while `replaying`, retained decisions from
  // `replay_next` onward are fed into the write queue at a watermark
  // (feed_replay) and freshly produced decisions are only recorded in
  // the ring — direct enqueue would jump the queue and break ordering.
  bool replaying = false;
  std::uint32_t replay_next = 0;
};

// What a resuming client asks for: the session its token names, the
// window to replay from, and the parameters the session must match.
struct Server::ResumeAsk {
  std::uint64_t token = 0;
  std::uint32_t from = 0;
  bool aggregate = false;
  std::string level{};  // plain sessions
  std::uint16_t window = 0;
  int num_tiers = 0;
  std::vector<std::uint16_t> coverage{};  // aggregate sessions
};

// A resume that landed on this reactor while its session was live on
// another: the eviction is in flight, the handshake reply waits.
struct Server::PendingResume {
  int fd = -1;
  ResumeAsk ask;
  double deadline = 0.0;
};

// One claim attempt on the linger directory: the session when claimed;
// otherwise the reactor holding it live (an eviction can free it) or why
// the resume is refused.
struct Server::Claim {
  std::unique_ptr<SessionState> session;
  std::optional<std::size_t> live_on;
  const char* why = nullptr;
};

// --- ShardGroup ----------------------------------------------------------

struct ShardGroup::Directory {
  // Detached sessions awaiting resume, keyed by resume token.
  std::unordered_map<std::uint64_t, std::unique_ptr<SessionState>> lingering;
  // Where every attached session token currently lives.
  std::unordered_map<std::uint64_t, std::size_t> live;
  // Parent-side fleet merge; created on the first SUBSCRIBE.
  std::unique_ptr<FleetAggregator> aggregator;
};

struct ShardGroup::Shard {
  EventLoop* loop = nullptr;
  Server* server = nullptr;
  util::Mutex mu;  // guards mail only; nests inside nothing
  std::vector<ShardEnvelope> mail HPCAP_GUARDED_BY(mu);
};

ShardGroup::ShardGroup(std::uint64_t token_seed)
    : dir(std::make_unique<Directory>()), token_state_(token_seed) {}

ShardGroup::~ShardGroup() {
  // Undrained handoff mail owns accepted sockets.
  for (auto& shard : shards_)
    for (ShardEnvelope& env : shard->mail)
      if (env.kind == ShardEnvelope::Kind::kAcceptedFd && env.fd >= 0)
        ::close(env.fd);
}

std::size_t ShardGroup::register_shard(EventLoop* loop, Server* server) {
  auto shard = std::make_unique<Shard>();
  shard->loop = loop;
  shard->server = server;
  shards_.push_back(std::move(shard));
  return shards_.size() - 1;
}

Server* ShardGroup::server(std::size_t shard) const {
  return shards_.at(shard)->server;
}

void ShardGroup::post(std::size_t shard, ShardEnvelope env) {
  Shard& s = *shards_.at(shard);
  {
    util::MutexLock lock(&s.mu);
    s.mail.push_back(std::move(env));
  }
  s.loop->wake();
}

std::vector<ShardEnvelope> ShardGroup::take_mail(std::size_t shard) {
  Shard& s = *shards_.at(shard);
  std::vector<ShardEnvelope> mail;
  util::MutexLock lock(&s.mu);
  mail.swap(s.mail);
  return mail;
}

std::uint64_t ShardGroup::next_token() noexcept {
  // One atomic splitmix64 stream shared by every reactor: fetch_add the
  // generator's additive constant, then apply the mix to the advanced
  // state — byte-identical to serial splitmix64 calls, so the standalone
  // daemon's token sequence is unchanged.
  for (;;) {
    std::uint64_t state = token_state_.fetch_add(0x9e3779b97f4a7c15ULL,
                                                 std::memory_order_relaxed);
    const std::uint64_t token = splitmix64(state);
    if (token != 0) return token;
  }
}

// --- Server --------------------------------------------------------------

Server::Server(EventLoop& loop, core::MonitorSource& source, ServerConfig cfg,
               ShardGroup* group, ShardRole role)
    : loop_(loop),
      source_(source),
      cfg_(std::move(cfg)),
      owned_group_(group == nullptr
                       ? std::make_unique<ShardGroup>(cfg_.token_seed)
                       : nullptr),
      group_(group == nullptr ? owned_group_.get() : group),
      role_(role),
      stats_(group_->stats) {
  if (cfg_.num_tiers < 1 ||
      cfg_.num_tiers > static_cast<int>(kMaxTiers))
    throw std::invalid_argument("Server: num_tiers out of range");
  if (cfg_.max_write_queue < 2)
    throw std::invalid_argument("Server: max_write_queue must be >= 2");
  // A session dropped for a full write queue replays from the ring, so
  // the ring must cover every decision the queue can hold.
  if (cfg_.decision_replay < cfg_.max_write_queue)
    throw std::invalid_argument(
        "Server: decision_replay must be >= max_write_queue");
  if (group == nullptr && role != ShardRole::kStandalone)
    throw std::invalid_argument(
        "Server: a sharded role needs an external ShardGroup");
  if (cfg_.ctrl_advisory) {
    // One advisory controller per fleet, created before any reactor
    // thread starts (the lock is for the sharded case's ctor ordering).
    util::MutexLock lock(&group_->ctrl_mu);
    if (!group_->ctrl) {
      ctrl::CapAdmissionOptions opts;
      opts.min_cap = cfg_.ctrl_min_cap;
      opts.max_cap = cfg_.ctrl_max_cap;
      opts.initial_cap = cfg_.ctrl_max_cap;
      group_->ctrl = std::make_unique<ctrl::CapAdmissionController>(opts);
    }
  }
  shard_id_ = group_->register_shard(&loop_, this);
}

Server::~Server() {
  for (auto& [fd, conn] : conns_) {
    loop_.remove_fd(fd);
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    loop_.remove_fd(listen_fd_);
    ::close(listen_fd_);
  }
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

std::size_t Server::lingering_sessions() const {
  util::MutexLock lock(&group_->mu);
  return group_->dir->lingering.size();
}

void Server::start() {
  // Resolve the control policy from the bind address whether or not this
  // role listens — every reactor answers STATS/RELOAD/SHUTDOWN frames.
  in_addr bound{};
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &bound) != 1)
    throw std::runtime_error("Server: bad bind address '" +
                             cfg_.bind_address + "'");
  const bool loopback = (ntohl(bound.s_addr) >> 24) == 127;
  control_allowed_ =
      cfg_.control_policy == ControlPolicy::kAllow ||
      (cfg_.control_policy == ControlPolicy::kAuto && loopback);
  if (!loopback && cfg_.control_policy == ControlPolicy::kAuto &&
      role_ != ShardRole::kHandoffWorker) {
    HPCAP_INFO << "hpcapd: non-loopback bind " << cfg_.bind_address
               << ": RELOAD/SHUTDOWN frames disabled"
               << " (ControlPolicy::kAllow overrides)";
  }

  if (role_ == ShardRole::kHandoffWorker) {
    // No listener: sockets arrive by mailbox. The port is the leader's.
    port_ = cfg_.port;
    arm_sweep();
    return;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("Server: socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  set_nonblocking_cloexec(listen_fd_);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  addr.sin_addr = bound;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("Server: bind/listen: ") +
                             std::strerror(err));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  // EMFILE parachute: hold one spare descriptor so fd exhaustion can be
  // answered by draining (accept + immediate close) the pending
  // connection instead of spinning on a level-triggered readable
  // listener that accept() can never satisfy.
  if (reserve_fd_ < 0) reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  loop_.add_fd(listen_fd_, true, false,
               [this](bool readable, bool) {
                 if (readable) accept_ready();
               });
  arm_sweep();
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: close the reserve, accept the pending
        // connection into the freed slot, close it (the peer sees a
        // clean refusal instead of a hang), and re-arm the reserve.
        ++stats_.accepts_rejected;
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
        }
        const int victim = ::accept(listen_fd_, nullptr, nullptr);
        if (victim >= 0) ::close(victim);
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        HPCAP_WARN << "hpcapd: out of file descriptors; refused a pending "
                      "connection";
        return;
      }
      HPCAP_WARN << "hpcapd: accept failed: " << std::strerror(errno);
      return;
    }
    if (draining_) {
      ::close(fd);
      continue;
    }
    if (role_ == ShardRole::kHandoffLeader && group_->size() > 1) {
      // Round-robin distribution; the leader keeps its own share.
      const std::size_t target = next_shard_++ % group_->size();
      if (target != shard_id_) {
        ++stats_.handoffs;
        ShardEnvelope env;
        env.kind = ShardEnvelope::Kind::kAcceptedFd;
        env.fd = fd;
        group_->post(target, std::move(env));
        continue;
      }
    }
    adopt_fd(fd);
  }
}

void Server::adopt_fd(int fd) {
  if (draining_) {
    ::close(fd);
    return;
  }
  set_nonblocking_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (cfg_.socket_sndbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.socket_sndbuf,
                 sizeof cfg_.socket_sndbuf);

  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->created = conn->last_activity = loop_.now();
  conns_.emplace(fd, std::move(conn));
  ++stats_.connections_accepted;
  loop_.add_fd(fd, true, false, [this, fd](bool r, bool w) {
    handle_io(fd, r, w);
  });
}

void Server::drain_mailbox() {
  for (ShardEnvelope& env : group_->take_mail(shard_id_)) {
    switch (env.kind) {
      case ShardEnvelope::Kind::kAcceptedFd:
        adopt_fd(env.fd);  // closes it itself when draining
        break;
      case ShardEnvelope::Kind::kEvictToken:
        // A resume landed on another reactor while this one still holds
        // the live connection; park the session so the claimant can pick
        // it up from the directory.
        if (Connection* victim = find_session(env.token))
          close_connection(victim->fd, "superseded by session resume");
        break;
      case ShardEnvelope::Kind::kFleetDecisions: {
        Connection* c = find_session(env.token);
        if (c != nullptr && !c->doomed) {
          deliver_fleet_local(*c, env.decisions);
        } else {
          // Parked (or evicted) since the fan-out snapshot: record into
          // the lingering ring so a resume still replays these windows.
          util::MutexLock lock(&group_->mu);
          const auto it = group_->dir->lingering.find(env.token);
          if (it != group_->dir->lingering.end())
            for (const DecisionFrame& d : env.decisions)
              it->second->record(d, cfg_.decision_replay);
        }
        break;
      }
      case ShardEnvelope::Kind::kBeginShutdown:
        begin_shutdown();
        break;
    }
  }
}

void Server::handle_io(int fd, bool readable, bool writable) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;

  if (writable) {
    flush_writes(*it->second);
    if (it->second->doomed) {
      close_connection(fd, it->second->doom_reason);
      return;
    }
  }

  if (!readable) return;
  Connection& c = *it->second;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = io::recv_retry(fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.last_activity = loop_.now();
      c.assembler.append(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof buf)) break;
      continue;
    }
    if (n == 0) {
      close_connection(fd, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(fd, "read error");
    return;
  }

  try {
    for (;;) {
      // A frame handler can doom the connection (send failure, queue
      // overflow, rejected HELLO already flushed), close it outright
      // (shutdown drain), or begin shutdown; re-validate the fd every
      // iteration and destroy doomed connections only here, where no
      // handler still holds a reference into them.
      const auto again = conns_.find(fd);
      if (again == conns_.end()) return;
      Connection& live = *again->second;
      if (live.doomed) {
        close_connection(fd, live.doom_reason);
        return;
      }
      // Zero-copy dispatch: the FrameRef payload is a span into the
      // assembler's buffer, valid through handle_frame (nothing appends
      // to this assembler until the next recv above).
      auto frame = live.assembler.next_ref();
      if (!frame) break;
      ++stats_.frames_in;
      handle_frame(live, *frame);
    }
  } catch (const ProtocolError& e) {
    ++stats_.malformed_frames;
    HPCAP_WARN << "hpcapd: dropping fd " << fd << ": " << e.what();
    close_connection(fd, "malformed frame");
    return;
  }

  // Deferred flush: every frame the handlers enqueued this wakeup —
  // DECISIONs, ACKs, control replies — leaves here in one scatter-gather
  // write. Re-find the fd first — a handler may have closed or doomed the
  // connection.
  const auto fin = conns_.find(fd);
  if (fin == conns_.end()) return;
  flush_writes(*fin->second);
  if (fin->second->doomed) close_connection(fd, fin->second->doom_reason);
}

void Server::handle_frame(Connection& c, const FrameRef& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      handle_hello(c, decode_hello_request(frame.payload));
      return;
    case FrameType::kSampleBatch:
      handle_batch(c, frame.payload);
      return;
    case FrameType::kAggregate:
      handle_aggregate(c, frame.payload);
      return;
    case FrameType::kStats: {
      PayloadReader r(frame.payload);
      r.expect_done("STATS request");
      handle_stats(c);
      return;
    }
    case FrameType::kReload:
      handle_reload(c, decode_reload_request(frame.payload));
      return;
    case FrameType::kShutdown: {
      PayloadReader r(frame.payload);
      r.expect_done("SHUTDOWN request");
      handle_shutdown(c);
      return;
    }
    case FrameType::kDecision:
      // Decisions flow daemon -> agent only.
      throw ProtocolError("wire protocol: DECISION frame from agent");
    case FrameType::kAck:
      // ACKs flow daemon -> agent only.
      throw ProtocolError("wire protocol: ACK frame from agent");
  }
  throw ProtocolError("wire protocol: unhandled frame type");
}

// Attaches a claimed session to `c`, replies with the right handshake
// frame (HELLO_ACK or SUBSCRIBE_REPLY), and starts replay.
void Server::attach_resumed(Connection& c, std::unique_ptr<SessionState> s,
                            std::uint32_t resume_from) {
  c.session = std::move(s);
  SessionState& session = *c.session;
  c.state = Connection::State::kStreaming;
  c.replaying = resume_from < session.window_index;
  c.replay_next = resume_from;
  ++stats_.sessions_resumed;
  reply_handshake(c, session.aggregate, Handshake::kResumed,
                  session.aggregate ? "subscription resumed"
                                    : "session resumed");
  HPCAP_INFO << "hpcapd: agent '" << session.agent << "' resumed "
             << (session.aggregate ? "aggregate " : "") << "session (seq "
             << session.last_applied_seq << ", replay from window "
             << resume_from << " of " << session.window_index << ")";
}

// The one check of a resume against the linger directory, under one
// lock: a lingering session that matches the ask is moved out and
// registered live on this reactor.
Server::Claim Server::claim_lingering(const ResumeAsk& ask) {
  Claim claim;
  util::MutexLock lock(&group_->mu);
  auto& dir = *group_->dir;
  const auto it = dir.lingering.find(ask.token);
  if (it == dir.lingering.end()) {
    const auto lv = dir.live.find(ask.token);
    if (lv != dir.live.end() && lv->second != shard_id_)
      claim.live_on = lv->second;
    else
      claim.why = "unknown or expired resume token";
    return claim;
  }
  const SessionState& s = *it->second;
  if (s.aggregate != ask.aggregate)
    claim.why = ask.aggregate
                    ? "resume token names a sampling session, not a "
                      "subscription"
                    : "resume token names a subscription, not a sampling "
                      "session";
  else if (ask.aggregate ? s.coverage != ask.coverage
                         : s.level != ask.level || s.window != ask.window ||
                               ask.num_tiers != cfg_.num_tiers)
    claim.why = "resume parameters do not match the original session";
  else if (ask.from < s.replay_first_window || ask.from > s.window_index)
    claim.why = "resume point outside the retained decision window";
  if (claim.why != nullptr) return claim;
  claim.session = std::move(it->second);
  dir.lingering.erase(it);
  dir.live[ask.token] = shard_id_;
  return claim;
}

// Resumes the session `ask` names onto `c`: attached at once when it
// lingers, deferred while the reactor holding it live evicts it, else
// refused with the claim's reason.
void Server::resume(Connection& c, ResumeAsk ask) {
  // The token may still be attached to a connection on THIS reactor that
  // the daemon hasn't noticed is dead (the client can observe a fault
  // and reconnect before the stale socket reports EOF). The client
  // proved ownership by presenting the token, so steal the session:
  // closing the stale connection parks it for the claim below.
  if (Connection* stale = find_session(ask.token))
    close_connection(stale->fd, "superseded by session resume");

  Claim claim = claim_lingering(ask);
  if (claim.session) {
    attach_resumed(c, std::move(claim.session), ask.from);
    return;
  }
  if (claim.live_on) {
    // Evict the live connection on its owning reactor, then retry the
    // claim on a short timer until the parked session appears (or the
    // defer budget runs out and the resume is rejected).
    ShardEnvelope env;
    env.kind = ShardEnvelope::Kind::kEvictToken;
    env.token = ask.token;
    group_->post(*claim.live_on, std::move(env));
    PendingResume pending;
    pending.fd = c.fd;
    pending.ask = std::move(ask);
    pending.deadline =
        loop_.now() + std::min(kResumeDeferCap, cfg_.handshake_timeout);
    pending_resumes_.push_back(std::move(pending));
    if (resume_timer_ == 0) {
      resume_timer_ = loop_.add_timer(kResumeRetryPeriod,
                                      [this] { retry_pending_resumes(); });
    }
    return;
  }
  ++stats_.resume_rejected;
  ++stats_.hellos_rejected;
  reply_handshake(c, ask.aggregate, Handshake::kRejected, claim.why);
}

void Server::retry_pending_resumes() {
  resume_timer_ = 0;
  std::vector<PendingResume> keep;
  for (PendingResume& p : pending_resumes_) {
    const auto it = conns_.find(p.fd);
    if (it == conns_.end() || it->second->doomed) continue;  // peer gone
    Connection& c = *it->second;
    Claim claim = claim_lingering(p.ask);
    if (claim.live_on && loop_.now() < p.deadline) {
      keep.push_back(std::move(p));  // eviction still in flight
      continue;
    }
    if (claim.session) {
      ++stats_.cross_shard_resumes;
      attach_resumed(c, std::move(claim.session), p.ask.from);
    } else {
      // Rejected: expired mid-eviction, mismatched ask, or defer timeout.
      ++stats_.resume_rejected;
      reply_handshake(c, p.ask.aggregate, Handshake::kRejected,
                      claim.why != nullptr ? claim.why
                                           : "resume eviction timed out");
    }
    flush_writes(c);
    if (c.doomed) close_connection(p.fd, c.doom_reason);
  }
  pending_resumes_ = std::move(keep);
  if (!pending_resumes_.empty() && resume_timer_ == 0 && !draining_) {
    resume_timer_ = loop_.add_timer(kResumeRetryPeriod,
                                    [this] { retry_pending_resumes(); });
  }
}

void Server::reply_handshake(Connection& c, bool aggregate, Handshake kind,
                             const std::string& message) {
  const SessionState* s =
      kind == Handshake::kRejected ? nullptr : c.session.get();
  if (s == nullptr) c.close_after_flush = true;
  const auto fill = [&](auto& rep) {
    rep.accepted = s != nullptr;
    rep.message = message;
    rep.model_version = s != nullptr ? s->model_version : source_.version();
    if (s == nullptr) return;
    rep.session_token = s->token;
    rep.last_applied_seq = s->last_applied_seq;
    rep.resumed = kind == Handshake::kResumed;
  };
  auto buf = take_spare(c);
  if (aggregate) {
    AggregateSubscribeReply rep;
    fill(rep);
    if (s != nullptr) {
      util::MutexLock lock(&group_->mu);
      if (group_->dir->aggregator)
        rep.num_synopses = group_->dir->aggregator->num_synopses();
    }
    encode_aggregate_subscribe_reply_into(rep, buf);
    enqueue(c, FrameType::kAggregate, std::move(buf));
    return;
  }
  HelloReply rep;
  fill(rep);
  rep.num_tiers = static_cast<std::uint16_t>(cfg_.num_tiers);
  if (s != nullptr) {
    rep.window = s->window;
    rep.dims.assign(static_cast<std::size_t>(cfg_.num_tiers),
                    static_cast<std::uint16_t>(s->pipeline->options().dim));
  }
  encode_hello_reply_into(rep, buf);
  enqueue(c, FrameType::kHello, std::move(buf));
}

Server::Connection* Server::find_session(std::uint64_t token) {
  for (auto& [fd, conn] : conns_)
    if (conn->session && conn->session->token == token) return conn.get();
  return nullptr;
}

void Server::handle_hello(Connection& c, const HelloRequest& req) {
  ++stats_.hellos;
  const auto reject = [&](const std::string& why) {
    ++stats_.hellos_rejected;
    reply_handshake(c, /*aggregate=*/false, Handshake::kRejected, why);
  };
  if (c.state != Connection::State::kAwaitHello) {
    reject("duplicate HELLO");
    return;
  }
  if (req.resume_token != 0) {
    resume(c, {.token = req.resume_token,
               .from = req.resume_from_window,
               .level = req.level,
               .window = req.window,
               .num_tiers = req.num_tiers});
    return;
  }

  const auto tiers = static_cast<std::size_t>(cfg_.num_tiers);
  const std::size_t dim = level_dim(req.level);
  if (dim == 0) {
    reject("unknown metric level '" + req.level + "'");
    return;
  }
  if (req.num_tiers != cfg_.num_tiers) {
    reject("tier count mismatch: agent " + std::to_string(req.num_tiers) +
           ", daemon " + std::to_string(cfg_.num_tiers));
    return;
  }
  if (req.window < 1 || req.window > cfg_.max_window) {
    reject("window out of range");
    return;
  }
  auto session = std::make_unique<SessionState>();
  SessionState& s = *session;
  s.replay.reserve(cfg_.decision_replay);
  try {
    s.pipeline.emplace(source_.instantiate(),
                       core::StreamPipeline::Options{
                           .num_tiers = tiers,
                           .dim = dim,
                           .window = req.window,
                           .max_missing_fraction = cfg_.max_missing_fraction,
                           .aggregator_trim = cfg_.aggregator_trim,
                           .validator_max_abs = cfg_.validator_max_abs,
                           .export_votes = uplink_ != nullptr});
    s.pipeline->monitor().predictor().reset_history();
  } catch (const std::exception& e) {
    reject(std::string("session setup failed: ") + e.what());
    return;
  }

  s.token = group_->next_token();
  s.agent = req.agent;
  s.level = req.level;
  s.window = req.window;
  s.model_version = source_.version();
  if (uplink_ != nullptr) {
    s.uplink_votes.assign(uplink_->coverage().size(), 0);
    s.uplink_valid.assign(uplink_->coverage().size(), 0);
  }
  {
    util::MutexLock lock(&group_->mu);
    group_->dir->live[s.token] = shard_id_;
  }
  c.session = std::move(session);
  c.state = Connection::State::kStreaming;
  reply_handshake(c, /*aggregate=*/false, Handshake::kAccepted,
                  "hpcapd ready");
  HPCAP_INFO << "hpcapd: agent '" << s.agent << "' streaming " << s.level
             << " level, window " << s.window << ", model v"
             << s.model_version;
}

// hpcap-lint: hot-path
void Server::handle_batch(Connection& c,
                          std::span<const std::uint8_t> payload) {
  if (c.state != Connection::State::kStreaming)
    throw ProtocolError("wire protocol: SAMPLE_BATCH before HELLO");
  SessionState& s = *c.session;
  if (s.aggregate)
    throw ProtocolError(
        "wire protocol: SAMPLE_BATCH on an aggregate session");
  const SampleBatchView batch = decode_sample_batch_view(payload, s.arena);
  const std::size_t tiers = static_cast<std::size_t>(cfg_.num_tiers);
  core::StreamPipeline& pipeline = *s.pipeline;

  if (batch.batch_seq == 0)
    throw ProtocolError("wire protocol: zero batch sequence");
  if (batch.batch_seq <= s.last_applied_seq) {
    // A replay of a batch already applied (client retransmitting after
    // resume): acknowledge it again and touch nothing else — this is
    // the dedup half of exactly-once.
    ++stats_.batches_deduped;
    enqueue_ack(c);
    return;
  }
  if (batch.batch_seq != s.last_applied_seq + 1)
    throw ProtocolError("wire protocol: batch sequence gap: expected " +
                        std::to_string(s.last_applied_seq + 1) + ", got " +
                        std::to_string(batch.batch_seq));

  // Structural pre-validation so the application loop below cannot throw
  // midway: a batch is applied whole or not at all, which exactly-once
  // semantics depend on (last_applied_seq covers entire batches).
  for (const TickView& tick : batch.ticks) {
    if (tick.tiers.size() != tiers)
      throw ProtocolError("wire protocol: tick tier count mismatch");
    for (const TierSlotView& slot : tick.tiers)
      if (slot.present && slot.values.size() != pipeline.options().dim)
        throw ProtocolError("wire protocol: slot width mismatch");
  }

  for (const TickView& tick : batch.ticks) {
    for (std::size_t t = 0; t < tiers; ++t) {
      const TierSlotView& slot = tick.tiers[t];
      if (slot.present)
        pipeline.add_slot(t, slot.values);
      else
        pipeline.mark_missing(t);
    }
    // Note: the batch is applied whole even if a decision flush dooms the
    // connection (peer vanished mid-batch) — enqueue/flush no-op on a
    // doomed connection, and stopping midway would leave the session
    // state covering a fraction of a sequence number.
    if (pipeline.end_tick()) {
      flush_decisions(c);
      // Mid-frame: a giant frame's first blocks need not wait for its
      // last. (The final block rides with the ACK in handle_io's flush.)
      if (&tick != &batch.ticks.back()) flush_writes(c);
    }
  }
  flush_decisions(c);
  const core::StreamPipeline::Counts n = pipeline.take_counts();
  stats_.ticks_in += batch.ticks.size();
  stats_.slots_present += n.slots_present;
  stats_.slots_missing += n.slots_missing;
  stats_.windows_discarded += n.windows_discarded;
  stats_.rows_rejected += n.rows_rejected;
  s.last_applied_seq = batch.batch_seq;
  enqueue_ack(c);
}

void Server::handle_aggregate(Connection& c,
                              std::span<const std::uint8_t> payload) {
  switch (peek_aggregate_kind(payload)) {
    case AggregateKind::kSubscribe:
      handle_agg_subscribe(c, decode_aggregate_subscribe(payload));
      return;
    case AggregateKind::kVotes:
      handle_agg_votes(c, decode_aggregate_batch(payload));
      return;
    case AggregateKind::kSubscribeReply:
      throw ProtocolError("wire protocol: SUBSCRIBE_REPLY from agent");
  }
  throw ProtocolError("wire protocol: unhandled AGGREGATE kind");
}

void Server::handle_agg_subscribe(Connection& c,
                                  const AggregateSubscribe& req) {
  ++stats_.agg_subscribes;
  const auto reject = [&](const std::string& why) {
    ++stats_.hellos_rejected;
    reply_handshake(c, /*aggregate=*/true, Handshake::kRejected, why);
  };
  if (c.state != Connection::State::kAwaitHello) {
    reject("duplicate handshake");
    return;
  }
  if (req.resume_token != 0) {
    resume(c, {.token = req.resume_token,
               .from = req.resume_from_window,
               .aggregate = true,
               .coverage = req.synopses});
    return;
  }

  auto session = std::make_unique<SessionState>();
  SessionState& s = *session;
  s.replay.reserve(cfg_.decision_replay);
  s.token = group_->next_token();
  std::size_t num_synopses = 0;
  std::optional<std::string> why;
  {
    util::MutexLock lock(&group_->mu);
    auto& dir = *group_->dir;
    if (!dir.aggregator) {
      FleetAggregator::Options aopts;
      aopts.fanin = cfg_.agg_fanin;
      try {
        dir.aggregator = std::make_unique<FleetAggregator>(source_, aopts);
      } catch (const std::exception& e) {
        why = std::string("fleet model instantiation failed: ") + e.what();
      }
    }
    if (dir.aggregator) {
      try {
        dir.aggregator->subscribe(s.token, req.synopses);
        num_synopses = dir.aggregator->num_synopses();
        s.model_version = dir.aggregator->model_version();
        dir.live[s.token] = shard_id_;
      } catch (const std::exception& e) {
        why = e.what();
      }
    }
  }
  // Replied with the directory lock released: nothing is enqueued under
  // group.mu.
  if (why) {
    reject(*why);
    return;
  }

  s.aggregate = true;
  s.agent = req.leaf;
  s.coverage = req.synopses;
  c.session = std::move(session);
  c.state = Connection::State::kStreaming;
  reply_handshake(c, /*aggregate=*/true, Handshake::kAccepted,
                  "fleet subscription accepted");
  HPCAP_INFO << "hpcapd: leaf '" << s.agent << "' subscribed ("
             << s.coverage.size() << " of " << num_synopses << " synopses)";
}

void Server::handle_agg_votes(Connection& c, const AggregateBatch& batch) {
  if (c.state != Connection::State::kStreaming || !c.session ||
      !c.session->aggregate)
    throw ProtocolError("wire protocol: VOTES before SUBSCRIBE");
  SessionState& s = *c.session;

  if (batch.agg_seq == 0)
    throw ProtocolError("wire protocol: zero aggregate sequence");
  if (batch.agg_seq <= s.last_applied_seq) {
    ++stats_.batches_deduped;
    enqueue_ack(c);
    return;
  }
  if (batch.agg_seq != s.last_applied_seq + 1)
    throw ProtocolError("wire protocol: aggregate sequence gap: expected " +
                        std::to_string(s.last_applied_seq + 1) + ", got " +
                        std::to_string(batch.agg_seq));

  // Structural pre-validation (whole-batch semantics, as handle_batch):
  // every window must carry exactly the subscribed coverage width.
  for (const AggregateWindow& w : batch.windows) {
    if (w.votes.size() != s.coverage.size() ||
        w.valid.size() != s.coverage.size())
      throw ProtocolError("wire protocol: VOTES width mismatch");
  }

  std::vector<DecisionFrame> decided;
  {
    util::MutexLock lock(&group_->mu);
    if (!group_->dir->aggregator)
      throw ProtocolError("wire protocol: VOTES with no fleet aggregator");
    try {
      decided = group_->dir->aggregator->apply(s.token, batch.windows);
    } catch (const std::exception& e) {
      throw ProtocolError(std::string("fleet merge refused the batch: ") +
                          e.what());
    }
  }
  stats_.agg_windows_in += batch.windows.size();
  s.last_applied_seq = batch.agg_seq;
  enqueue_ack(c);
  if (!decided.empty()) {
    stats_.fleet_decisions += decided.size();
    fan_out_fleet(std::move(decided));
  }
}

// Streams freshly decided fleet windows to every subscriber session:
// sessions on this reactor inline, sessions on other reactors by mail,
// lingering sessions straight into their replay rings. Called with
// group.mu NOT held.
void Server::fan_out_fleet(std::vector<DecisionFrame> decided) {
  struct Remote {
    std::size_t shard;
    std::uint64_t token;
  };
  std::vector<std::uint64_t> local;
  std::vector<Remote> remote;
  {
    util::MutexLock lock(&group_->mu);
    auto& dir = *group_->dir;
    if (!dir.aggregator) return;
    for (const std::uint64_t token : dir.aggregator->subscriber_tokens()) {
      const auto lv = dir.live.find(token);
      if (lv != dir.live.end()) {
        if (lv->second == shard_id_)
          local.push_back(token);
        else
          remote.push_back({lv->second, token});
        continue;
      }
      const auto li = dir.lingering.find(token);
      if (li == dir.lingering.end()) continue;
      for (const DecisionFrame& d : decided)
        li->second->record(d, cfg_.decision_replay);
    }
  }
  for (const Remote& r : remote) {
    ShardEnvelope env;
    env.kind = ShardEnvelope::Kind::kFleetDecisions;
    env.token = r.token;
    env.decisions = decided;
    group_->post(r.shard, std::move(env));
  }
  for (const std::uint64_t token : local) {
    Connection* c = find_session(token);
    if (c != nullptr && !c->doomed) deliver_fleet_local(*c, decided);
  }
}

// hpcap-lint: hot-path
void Server::deliver_fleet_local(Connection& c,
                                 std::span<const DecisionFrame> decided) {
  for (const DecisionFrame& frame : decided) emit_decision(c, frame);
  flush_writes(c);
}

void Server::emit_decision(Connection& c, const DecisionFrame& frame) {
  c.session->record(frame, cfg_.decision_replay);
  if (c.replaying) return;
  auto buf = take_spare(c);
  encode_decision_into(frame, buf);
  enqueue(c, FrameType::kDecision, std::move(buf));
}

// Permanent retirement of a session (linger expiry, non-resumable close,
// eviction of the linger cap's oldest). Aggregate sessions leave
// the fleet: their coverage unsubscribes and any windows that were
// waiting on them decide degraded and fan out.
void Server::retire_session(SessionState& s) {
  if (!s.aggregate) return;
  std::vector<DecisionFrame> decided;
  {
    util::MutexLock lock(&group_->mu);
    if (!group_->dir->aggregator) return;
    decided = group_->dir->aggregator->unsubscribe(s.token);
  }
  if (!decided.empty()) {
    stats_.fleet_decisions += decided.size();
    fan_out_fleet(std::move(decided));
  }
}

// hpcap-lint: hot-path
void Server::flush_decisions(Connection& c) {
  SessionState& s = *c.session;
  const auto decided = s.pipeline->decide();
  const std::size_t W = decided.size();
  if (W == 0) return;
  stats_.windows += W;
  stats_.decisions += W;
  if (group_->ctrl) {
    // Advisory AIMD: the daemon never sheds traffic itself — clients read
    // the recommended cap from STATS. Anchorless feed (no load signal
    // here), leaf-level lock, no allocation.
    util::MutexLock lock(&group_->ctrl_mu);
    for (const auto& d : decided) group_->ctrl->on_window(d);
  }
  // Leaf mode exports each window's GPV to the uplink; the decisions
  // themselves are bit-identical either way.
  const bool export_votes =
      uplink_ != nullptr && s.pipeline->options().export_votes;
  for (std::size_t w = 0; w < W; ++w) {
    const DecisionFrame frame = to_decision_frame(s.window_index, decided[w]);
    if (export_votes) {
      // Slice this window's full-width GPV down to the uplink's coverage
      // order; a covered index the local model lacks stays abstaining.
      const auto votes = s.pipeline->votes(w);
      const auto valid = s.pipeline->votes_valid(w);
      const auto& cov = uplink_->coverage();
      for (std::size_t i = 0; i < cov.size(); ++i) {
        const std::size_t g = cov[i];
        const bool have = g < votes.size();
        s.uplink_votes[i] = have ? votes[g] : 0;
        s.uplink_valid[i] = have ? valid[g] : 0;
      }
      uplink_->offer(s.token, frame.window_index,
                     std::span(s.uplink_votes.data(), cov.size()),
                     std::span(s.uplink_valid.data(), cov.size()));
    }
    emit_decision(c, frame);
  }
}

void Server::enqueue_ack(Connection& c) {
  if (c.doomed) return;
  SessionState& s = *c.session;
  AckFrame ack;
  ack.last_applied_seq = s.last_applied_seq;
  ack.next_window = s.window_index;
  // Cumulative ACKs make stacked ones redundant: overwrite an unsent ACK
  // at the queue tail in place. Only at the tail — an ACK further up
  // sits ahead of decisions it must not claim.
  if (!c.write_queue.empty()) {
    Connection::OutFrame& tail = c.write_queue.back();
    if (tail.type == FrameType::kAck && tail.offset == 0) {
      tail.bytes.clear();
      encode_ack_into(ack, tail.bytes);
      return;
    }
  }
  auto buf = take_spare(c);
  encode_ack_into(ack, buf);
  enqueue(c, FrameType::kAck, std::move(buf));
}

void Server::feed_replay(Connection& c) {
  if (!c.replaying || c.doomed) return;
  SessionState& s = *c.session;
  const std::size_t watermark =
      std::max<std::size_t>(cfg_.max_write_queue / 2, 1);
  while (c.write_queue.size() < watermark) {
    if (c.replay_next >= s.window_index) {
      // Caught up: fresh decisions enqueue directly again.
      c.replaying = false;
      return;
    }
    if (c.replay_next < s.replay_first_window) {
      // The ring dropped decisions this client still needs (it fell more
      // than decision_replay windows behind while replaying); stream
      // continuity is unrecoverable on this connection.
      doom(c, "resume replay overrun");
      return;
    }
    const std::size_t idx =
        static_cast<std::size_t>(c.replay_next - s.replay_first_window);
    auto buf = take_spare(c);
    encode_decision_into(s.replayed(idx), buf);
    enqueue(c, FrameType::kDecision, std::move(buf));
    ++c.replay_next;
  }
}

StatsReply Server::build_stats() const {
  StatsReply rep;
  rep.entries = {
      {"protocol_version", kProtocolVersion},
      {"model_version", source_.version()},
      {"num_tiers", static_cast<std::uint64_t>(cfg_.num_tiers)},
      {"reactors", static_cast<std::uint64_t>(group_->size())},
      // Fleet-wide (stats are shared across reactors); the per-shard
      // conns_ map would undercount a sharded daemon.
      {"connections_active",
       stats_.connections_accepted - stats_.connections_closed},
      {"connections_accepted", stats_.connections_accepted},
      {"connections_closed", stats_.connections_closed},
      {"accepts_rejected", stats_.accepts_rejected},
      {"timeouts", stats_.timeouts},
      {"frames_in", stats_.frames_in},
      {"frames_out", stats_.frames_out},
      {"malformed_frames", stats_.malformed_frames},
      {"hellos", stats_.hellos},
      {"hellos_rejected", stats_.hellos_rejected},
      {"ticks_in", stats_.ticks_in},
      {"slots_present", stats_.slots_present},
      {"slots_missing", stats_.slots_missing},
      {"windows", stats_.windows},
      {"windows_discarded", stats_.windows_discarded},
      {"rows_rejected", stats_.rows_rejected},
      {"decisions", stats_.decisions},
      {"decisions_shed", stats_.decisions_shed},
      {"write_queue_overflows", stats_.write_queue_overflows},
      {"control_rejected", stats_.control_rejected},
      {"reloads", stats_.reloads},
      {"reload_failures", stats_.reload_failures},
      {"sessions_lingering", lingering_sessions()},
      {"sessions_detached", stats_.sessions_detached},
      {"sessions_resumed", stats_.sessions_resumed},
      {"sessions_expired", stats_.sessions_expired},
      {"resume_rejected", stats_.resume_rejected},
      {"batches_deduped", stats_.batches_deduped},
      {"handoffs", stats_.handoffs},
      {"cross_shard_resumes", stats_.cross_shard_resumes},
      {"agg_subscribes", stats_.agg_subscribes},
      {"agg_windows_in", stats_.agg_windows_in},
      {"fleet_decisions", stats_.fleet_decisions},
      {"write_calls", stats_.write_calls},
  };
  if (group_->ctrl) {
    util::MutexLock lock(&group_->ctrl_mu);
    const auto& ctl = *group_->ctrl;
    const double cap = ctl.cap();
    rep.entries.emplace_back(
        "ctrl_cap", static_cast<std::uint64_t>(std::llround(
                        std::max(0.0, std::min(cap, 1e18)))));
    rep.entries.emplace_back("ctrl_windows", ctl.windows());
    rep.entries.emplace_back("ctrl_decreases", ctl.decreases());
    rep.entries.emplace_back("ctrl_increases", ctl.increases());
    rep.entries.emplace_back("ctrl_freezes", ctl.freezes());
    rep.entries.emplace_back(
        "ctrl_overload_streak",
        static_cast<std::uint64_t>(ctl.overload_streak()));
    rep.entries.emplace_back(
        "ctrl_cooldown_remaining",
        static_cast<std::uint64_t>(ctl.cooldown_remaining()));
  }
  return rep;
}

void Server::handle_stats(Connection& c) {
  auto buf = take_spare(c);
  encode_stats_reply_into(build_stats(), buf);
  enqueue(c, FrameType::kStats, std::move(buf));
}

void Server::handle_reload(Connection& c, const ReloadRequest& req) {
  ReloadReply rep;
  if (!control_allowed_) {
    ++stats_.control_rejected;
    rep.message = "remote control disabled on this bind";
    HPCAP_WARN << "hpcapd: RELOAD refused (control policy)";
  } else {
    try {
      source_.swap_from_file(req.path);
      ++stats_.reloads;
      rep.ok = true;
      rep.message = "model reloaded";
      HPCAP_INFO << "hpcapd: model reloaded (v" << source_.version() << ")";
    } catch (const std::exception& e) {
      ++stats_.reload_failures;
      rep.message = e.what();
      HPCAP_WARN << "hpcapd: reload failed, keeping current model: "
                 << e.what();
    }
  }
  rep.model_version = source_.version();
  auto buf = take_spare(c);
  encode_reload_reply_into(rep, buf);
  enqueue(c, FrameType::kReload, std::move(buf));
}

void Server::request_reload() {
  try {
    source_.swap_from_file();
    ++stats_.reloads;
    HPCAP_INFO << "hpcapd: SIGHUP reload ok (model v" << source_.version()
               << ")";
  } catch (const std::exception& e) {
    ++stats_.reload_failures;
    HPCAP_WARN << "hpcapd: SIGHUP reload failed, keeping current model: "
               << e.what();
  }
}

void Server::handle_shutdown(Connection& c) {
  if (!control_allowed_) {
    ++stats_.control_rejected;
    HPCAP_WARN << "hpcapd: SHUTDOWN refused (control policy); dropping peer";
    doom(c, "unauthorized SHUTDOWN");
    return;
  }
  c.close_after_flush = true;
  auto buf = take_spare(c);
  encode_shutdown_into(buf);
  enqueue(c, FrameType::kShutdown, std::move(buf));
  begin_shutdown();
}

void Server::begin_shutdown() {
  if (draining_) return;
  draining_ = true;
  // The whole daemon drains, not one reactor: broadcast before the local
  // teardown so sibling loops wake and start their own. Re-entry (the
  // echo of our own broadcast) stops at the draining_ gate above.
  for (std::size_t i = 0; i < group_->size(); ++i) {
    if (i == shard_id_) continue;
    ShardEnvelope env;
    env.kind = ShardEnvelope::Kind::kBeginShutdown;
    group_->post(i, std::move(env));
  }
  HPCAP_INFO << "hpcapd: shutting down (" << conns_.size()
             << " connections to drain)";
  // Lingering sessions have nothing left to resume against.
  {
    util::MutexLock lock(&group_->mu);
    group_->dir->lingering.clear();
  }
  pending_resumes_.clear();
  loop_.cancel_timer(resume_timer_);
  resume_timer_ = 0;
  if (listen_fd_ >= 0) {
    loop_.remove_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  loop_.cancel_timer(sweep_timer_);
  std::vector<int> to_close;
  for (auto& [fd, conn] : conns_) {
    if (conn->write_queue.empty())
      to_close.push_back(fd);
    else
      conn->close_after_flush = true;
  }
  for (int fd : to_close) close_connection(fd, "shutdown");
  if (conns_.empty()) {
    loop_.stop();
    return;
  }
  loop_.add_timer(cfg_.shutdown_grace, [this] {
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) fds.push_back(fd);
    for (int fd : fds) close_connection(fd, "shutdown grace expired");
    loop_.stop();
  });
}

bool Server::resumable() const noexcept {
  return cfg_.session_linger > 0 && !draining_;
}

void Server::enqueue(Connection& c, FrameType type,
                     std::vector<std::uint8_t> frame) {
  if (c.doomed) return;
  if (c.close_after_flush && type == FrameType::kDecision) return;
  // Flushes are deferred to the end of the wakeup, so a full queue may
  // only be unsent, not unread: try the socket before shedding or
  // dropping. (A closing connection skips this — draining its queue
  // would doom it before this last reply is queued.)
  if (c.write_queue.size() >= cfg_.max_write_queue && !c.close_after_flush) {
    flush_writes(c);
    if (c.doomed) return;
  }
  if (c.write_queue.size() >= cfg_.max_write_queue) {
    // A resumable session is promised exactly-once decision delivery,
    // and shedding on a connection that stays up would be a silent gap
    // the client can never detect — it would wait forever for a window
    // that is not coming. Drop the connection instead: the decisions are
    // already in the replay ring, and reconnect + resume redelivers
    // them. (The constructor's decision_replay >= max_write_queue check
    // keeps the gap coverable.)
    if (c.session && resumable()) {
      ++stats_.write_queue_overflows;
      HPCAP_WARN << "hpcapd: fd " << c.fd
                 << " not draining decisions; dropping resumable session "
                    "for replay on reconnect";
      doom(c, "write queue overflow");
      return;
    }
    // Not resumable: shed the oldest queued DECISION (stale by the time
    // a stalled agent reads it); control frames always survive.
    bool shed = false;
    for (auto it = c.write_queue.begin(); it != c.write_queue.end(); ++it) {
      if (it->type == FrameType::kDecision && it->offset == 0) {
        if (c.spares.size() < kSparePool) {
          it->bytes.clear();
          c.spares.push_back(std::move(it->bytes));
        }
        c.write_queue.erase(it);
        shed = true;
        break;
      }
    }
    if (!shed) {
      if (type == FrameType::kDecision) {
        // Queue full of unsheddable frames: drop the newcomer instead.
        ++stats_.decisions_shed;
        return;
      }
      // A control reply with the queue full of control frames: the peer
      // streams requests without ever reading its socket. The queue
      // bound is a promise about daemon memory, so the connection is
      // dropped rather than the queue grown.
      ++stats_.write_queue_overflows;
      HPCAP_WARN << "hpcapd: fd " << c.fd
                 << " write queue full of control frames; dropping peer";
      doom(c, "write queue overflow");
      return;
    }
    ++stats_.decisions_shed;
    if (c.sheds++ % 1024 == 0) {
      HPCAP_WARN << "hpcapd: fd " << c.fd
                 << " not draining decisions; shedding oldest (total "
                 << (c.sheds) << ")";
    }
  }
  Connection::OutFrame out;
  out.type = type;
  out.bytes = std::move(frame);
  c.write_queue.push_back(std::move(out));
}

std::vector<std::uint8_t> Server::take_spare(Connection& c) {
  if (c.spares.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(c.spares.back());
  c.spares.pop_back();
  buf.clear();
  return buf;
}

// hpcap-lint: hot-path
void Server::flush_writes(Connection& c) {
  if (c.doomed) return;
  const int fd = c.fd;
  feed_replay(c);
  if (c.doomed) return;
  while (!c.write_queue.empty()) {
    // Gather every queued frame (up to kMaxIov) into one ::sendmsg: a
    // block of decisions — or a control reply riding behind them —
    // leaves in a single syscall.
    iovec iov[kMaxIov];
    std::size_t n_iov = 0;
    for (auto it = c.write_queue.begin();
         it != c.write_queue.end() && n_iov < kMaxIov; ++it) {
      iov[n_iov].iov_base = it->bytes.data() + it->offset;
      iov[n_iov].iov_len = it->bytes.size() - it->offset;
      ++n_iov;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(n_iov);
    const ssize_t n = io::sendmsg_retry(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      ++stats_.write_calls;
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        Connection::OutFrame& front = c.write_queue.front();
        const std::size_t remain = front.bytes.size() - front.offset;
        if (left < remain) {
          front.offset += left;
          break;
        }
        left -= remain;
        ++stats_.frames_out;
        if (c.spares.size() < kSparePool) {
          front.bytes.clear();
          // Bounded recycling pool — the push_back stops at kSparePool
          // entries and each element's capacity is reused thereafter.
          // hpcap-lint: allow(hot-path-alloc)
          c.spares.push_back(std::move(front.bytes));
        }
        c.write_queue.pop_front();
      }
      // Top the queue back up from the replay ring as it drains.
      feed_replay(c);
      if (c.doomed) return;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EPIPE/ECONNRESET from a vanished peer: callers (often deep inside
    // handle_batch) still reference this Connection, so never destroy it
    // here — mark it and let handle_io close it.
    doom(c, "write error");
    return;
  }
  const bool want_write = !c.write_queue.empty();
  if (want_write != c.want_write) {
    c.want_write = want_write;
    loop_.set_interest(fd, true, want_write);
  }
  if (!want_write && c.close_after_flush) doom(c, "flushed");
}

void Server::doom(Connection& c, const char* why) {
  if (c.doomed) return;
  c.doomed = true;
  c.doom_reason = why;
  c.write_queue.clear();
}

void Server::close_connection(int fd, const char* why) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& c = *it->second;
  // Park resumable sessions instead of destroying their stream state;
  // the linger sweep (or a resuming client, on any reactor) decides
  // their fate.
  std::unique_ptr<SessionState> evicted;  // linger-cap victim
  std::unique_ptr<SessionState> retired;  // permanently closed session
  if (c.session && resumable()) {
    SessionState& s = *c.session;
    s.detached_at = loop_.now();
    ++stats_.sessions_detached;
    {
      util::MutexLock lock(&group_->mu);
      auto& dir = *group_->dir;
      if (dir.lingering.size() >= cfg_.max_lingering) {
        auto oldest = dir.lingering.begin();
        for (auto li = dir.lingering.begin(); li != dir.lingering.end(); ++li)
          if (li->second->detached_at < oldest->second->detached_at)
            oldest = li;
        ++stats_.sessions_expired;
        HPCAP_WARN << "hpcapd: lingering-session cap reached; expiring "
                      "agent '"
                   << oldest->second->agent << "' early";
        evicted = std::move(oldest->second);
        dir.lingering.erase(oldest);
      }
      dir.live.erase(s.token);
      HPCAP_DEBUG << "hpcapd: parking session for agent '" << s.agent
                  << "' (" << why << "), resumable for "
                  << cfg_.session_linger << "s";
      dir.lingering.emplace(s.token, std::move(it->second->session));
    }
  } else if (c.session) {
    // Not resumable: the session leaves for good — deregister and retire
    // below, outside the map erase so fan-out can still run.
    {
      util::MutexLock lock(&group_->mu);
      group_->dir->live.erase(c.session->token);
    }
    retired = std::move(it->second->session);
  }
  HPCAP_DEBUG << "hpcapd: closing fd " << fd << " (" << why << ")";
  loop_.remove_fd(fd);
  ::close(fd);
  conns_.erase(it);
  ++stats_.connections_closed;
  if (evicted) retire_session(*evicted);
  if (retired) retire_session(*retired);
  if (draining_ && conns_.empty()) loop_.stop();
}

void Server::arm_sweep() {
  sweep_timer_ = loop_.add_timer(cfg_.sweep_period, [this] {
    sweep_deadlines();
    if (!draining_) arm_sweep();
  });
}

void Server::sweep_deadlines() {
  const double now = loop_.now();
  std::vector<int> expired;
  for (auto& [fd, conn] : conns_) {
    const bool half_open =
        conn->state == Connection::State::kAwaitHello &&
        now - conn->created > cfg_.handshake_timeout;
    const bool idle = now - conn->last_activity > cfg_.idle_timeout;
    if (half_open || idle) expired.push_back(fd);
  }
  for (int fd : expired) {
    ++stats_.timeouts;
    close_connection(fd, "deadline expired");
  }
  // Reap lingering sessions nobody came back for: their aggregator and
  // predictor state flushes and the resume token dies with them. Shard 0
  // sweeps the shared directory so an expiry happens exactly once.
  if (shard_id_ != 0) return;
  std::vector<std::unique_ptr<SessionState>> dead;
  {
    util::MutexLock lock(&group_->mu);
    auto& lingering = group_->dir->lingering;
    for (auto it = lingering.begin(); it != lingering.end();) {
      if (now - it->second->detached_at > cfg_.session_linger) {
        dead.push_back(std::move(it->second));
        it = lingering.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& s : dead) {
    ++stats_.sessions_expired;
    HPCAP_INFO << "hpcapd: session for agent '" << s->agent
               << "' expired unresumed (" << s->window_index
               << " windows decided, seq " << s->last_applied_seq << ")";
    retire_session(*s);
  }
}

// --- daemon runner -------------------------------------------------------

namespace {

std::atomic<EventLoop*> g_signal_loop{nullptr};
volatile std::sig_atomic_t g_got_term = 0;
volatile std::sig_atomic_t g_got_hup = 0;

void on_term(int) {
  g_got_term = 1;
  if (EventLoop* loop = g_signal_loop.load()) loop->wake();
}

void on_hup(int) {
  g_got_hup = 1;
  if (EventLoop* loop = g_signal_loop.load()) loop->wake();
}

// Default leaf coverage: every synopsis of the local model, in order.
std::vector<std::uint16_t> full_coverage(const core::MonitorSource& source) {
  const std::size_t m = source.instantiate().synopses().size();
  std::vector<std::uint16_t> cov(m);
  for (std::size_t i = 0; i < m; ++i) cov[i] = static_cast<std::uint16_t>(i);
  return cov;
}

std::unique_ptr<Uplink> make_uplink(const ServerConfig& cfg,
                                    const core::MonitorSource& source) {
  if (cfg.parent_host.empty()) return nullptr;
  Uplink::Options uo;
  uo.host = cfg.parent_host;
  uo.port = cfg.parent_port;
  uo.leaf = cfg.leaf_name;
  uo.coverage =
      cfg.agg_coverage.empty() ? full_coverage(source) : cfg.agg_coverage;
  auto uplink = std::make_unique<Uplink>(std::move(uo));
  uplink->start();
  return uplink;
}

}  // namespace

int run_daemon(const ServerConfig& cfg, const std::string& model_path,
               bool install_signals) {
  core::MonitorSource source = [&] {
    try {
      return core::MonitorSource::from_file(model_path);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("hpcapd: ") + e.what());
    }
  }();

  // One reactor or many: ShardedServer runs reactor 0's loop on this
  // thread (the rest on their own) and signals land on that loop.
  ShardedServer daemon(source, cfg);
  std::unique_ptr<Uplink> uplink = make_uplink(cfg, source);
  if (uplink) daemon.set_uplink(uplink.get());
  if (install_signals) {
    g_signal_loop.store(&daemon.loop(0));
    std::signal(SIGINT, on_term);
    std::signal(SIGTERM, on_term);
    std::signal(SIGHUP, on_hup);
    std::signal(SIGPIPE, SIG_IGN);
    daemon.set_shard0_wake_hook([&daemon] {
      if (g_got_hup) {
        g_got_hup = 0;
        daemon.shard(0).request_reload();
      }
      if (g_got_term) {
        g_got_term = 0;
        daemon.shard(0).begin_shutdown();
      }
    });
  }
  daemon.start();
  std::printf("hpcapd listening on %s:%u (model v%u, protocol v%u",
              cfg.bind_address.c_str(), daemon.port(), source.version(),
              kProtocolVersion);
  if (cfg.reactors > 1) std::printf(", %zu reactors", cfg.reactors);
  std::printf(")\n");
  std::fflush(stdout);
  daemon.join();
  if (uplink) uplink->stop();
  if (install_signals) {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGHUP, SIG_DFL);
    g_signal_loop.store(nullptr);
  }
  const ServerStats& s = daemon.group().stats;
  std::printf(
      "hpcapd exiting: %llu decisions (%llu shed), %llu windows, "
      "%llu connections, %llu resumes (%llu sessions expired)\n",
      static_cast<unsigned long long>(s.decisions),
      static_cast<unsigned long long>(s.decisions_shed),
      static_cast<unsigned long long>(s.windows),
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.sessions_resumed),
      static_cast<unsigned long long>(s.sessions_expired));
  return 0;
}

}  // namespace hpcap::net

// hpcapd — the streaming capacity-monitoring daemon.
//
// One event-loop thread serves a set of agent connections. A connection
// carries one monitored sample stream: the agent HELLOs with its metric
// level, tier count and window size, then pushes per-tier 1 Hz slots in
// SAMPLE_BATCH frames. The session feeds every slot to its own
// core::StreamPipeline (core/stream.h: gap-aware windowing, row
// validation, batched masked decide) — exactly the in-process
// degraded-mode chain, behind a socket. Each DECISION produced streams
// straight back to the agent. The server itself keeps only transport
// and session bookkeeping.
//
// Sessions and connections are distinct objects: the Connection is the
// socket (deadlines, assembler, write queue) and the SessionState is the
// stream state (pipeline, sequence bookkeeping, replay ring).
// The session survives its socket — when the peer vanishes, the session
// detaches into a linger directory for cfg.session_linger seconds, and
// a client reconnecting with the resume token from HELLO_ACK reattaches
// it: the daemon reports its last-applied batch sequence, dedups any
// batches the client replays, and re-streams retained DECISIONs from
// the client's resume window. The result is exactly-once application
// end to end — the decision stream across any disconnect/reconnect
// schedule is bit-identical to a run with no failures. Sessions nobody
// reclaims are expired by the sweep (`sessions_expired` in STATS).
//
// Sharding (ISSUE 8): a daemon may run N reactors, each a private
// EventLoop + Server on its own thread. A connection is owned by exactly
// one reactor for its whole life — every byte of its socket and every
// field of its attached session is touched only from that reactor's loop
// thread, so the per-connection fast path takes no locks. The shared
// spine is the ShardGroup: fleet-wide atomic stats, the linger directory
// (mutex-guarded — resumes may land on any reactor), a live token->shard
// registry, and one mailbox per shard drained via the loop's wake()
// self-pipe. Reactor 0 owns the only listener and hands accepted sockets
// to the reactors round-robin through their mailboxes (keeping its own
// share), so connection placement is deterministic. A resume token
// landing on the "wrong" reactor is resolved through the directory:
// lingering sessions are claimed directly; a session still live on
// another shard is evicted there (kEvictToken mail) and claimed when it
// parks. For any fixed connection->reactor assignment the
// decision streams are bit-identical to the single-reactor daemon.
//
// Aggregation (ISSUE 8): a leaf daemon given cfg.parent_host streams
// each decided window's GPV (votes + abstention bits) up an Uplink to a
// parent hpcapd; the parent's aggregate sessions (AGGREGATE frames,
// net/aggregate.h) merge the disjoint per-leaf slices in a
// FleetAggregator and stream fleet DECISIONs back down. Aggregate
// sessions reuse the whole session machinery — tokens, seq dedup,
// ACKs, linger/resume, replay rings.
//
// The receive path is zero-copy end to end: frames are dispatched as
// FrameRef spans into the connection's assembler buffer, SAMPLE_BATCH
// payloads decode through a per-session BatchArena (no per-tick
// allocation after warmup), and the pipeline decides up to
// core::kObserveBlock closed windows at a time, when its block fills and
// at the end of every frame. Outbound frames encode into recycled
// buffers; handlers only enqueue, and a connection's queued frames (a
// batch's DECISIONs and its ACK together) leave in one scatter-gather
// ::sendmsg per event-loop wakeup.
//
// Decisions over the wire are bit-identical to the in-process pipeline on
// the same stream: every session gets a private monitor instance (from
// core::MonitorSource, history freshly reset), so concurrent agents
// cannot perturb each other's predictor state.
//
// Flow control: the per-connection write queue is bounded. When an agent
// stops draining its socket, a resumable session (cfg.session_linger > 0
// and the daemon not draining) is dropped: its decisions are already in
// the replay ring, and reconnect + resume redelivers them exactly once
// (cfg.decision_replay >= cfg.max_write_queue keeps every queued window
// in the ring). A non-resumable session — session_linger 0, or any
// session while the daemon drains — sheds its oldest queued DECISION
// frames instead, with a warning: a stale decision is worthless by the
// time a stalled agent would read it, mirroring
// core::OnlineAdapter::max_pending. Control replies
// (HELLO/STATS/RELOAD/SHUTDOWN/ACK) are never shed; if the queue fills
// with control frames a peer refuses to read, the connection is dropped
// instead, so the bound holds unconditionally. Resume replay is fed
// through a cursor at a queue watermark rather than enqueued wholesale,
// so reattaching far behind cannot overflow the bound either.
//
// Lifecycle: RELOAD frames (and SIGHUP via Server::request_reload) swap
// the model source atomically; live sessions keep the instance they
// HELLOed with (their predictor history must stay coherent) and no
// connection is dropped — new sessions get the new model generation.
// SHUTDOWN drains queued frames and stops the loop. RELOAD and SHUTDOWN
// are control-plane operations: by default they are honored only when
// the daemon is bound to a loopback address (ControlPolicy::kAuto) —
// the protocol has no peer authentication, so a non-loopback bind
// refuses them unless the operator opts in explicitly. Half-open sockets
// that never HELLO and idle streams are reaped by deadline sweeps.
//
// One wire version: every frame carries kProtocolVersion in its header,
// and a frame with any other version byte is malformed — the connection
// is dropped and `malformed_frames` counts it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/monitor_source.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "util/mutex.h"

namespace hpcap::ctrl {
class CapAdmissionController;
}

namespace hpcap::net {

class Uplink;
struct SessionState;

// Who may issue RELOAD/SHUTDOWN control frames. kAuto honors them only
// when the daemon is bound to a loopback address; kAllow and kDeny
// override that in either direction.
enum class ControlPolicy { kAuto, kAllow, kDeny };

// This reactor's part in the sharding arrangement (ShardedServer picks).
enum class ShardRole {
  kStandalone,     // classic single-reactor daemon; owns everything
  kHandoffLeader,  // owns the only listener; distributes accepts
  kHandoffWorker,  // no listener; receives accepts by mailbox
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; Server::port() has the result
  int num_tiers = 2;
  // Seconds a connection may sit without a completed HELLO (half-open)
  // and without any inbound traffic (idle) before being closed.
  double handshake_timeout = 10.0;
  double idle_timeout = 300.0;
  double sweep_period = 1.0;      // deadline-sweep cadence
  double shutdown_grace = 5.0;    // drain budget after SHUTDOWN
  // Backpressure bound: max frames queued toward one agent before a
  // resumable session is dropped for replay (or, on a non-resumable one,
  // the oldest DECISION frames are shed).
  std::size_t max_write_queue = 256;
  // SO_SNDBUF for accepted sockets; 0 = OS default. Tests shrink it so a
  // non-draining agent hits the write-queue bound quickly.
  int socket_sndbuf = 0;
  // Session validation knobs (see core/validate.h, counters/sampler.h).
  double validator_max_abs = 1e18;
  double max_missing_fraction = 0.5;
  int aggregator_trim = 0;
  // Window sizes an agent may request in HELLO.
  std::uint16_t max_window = 3600;
  // RELOAD/SHUTDOWN authorization (see ControlPolicy above).
  ControlPolicy control_policy = ControlPolicy::kAuto;

  // --- session resume ------------------------------------------------
  // Seconds a detached session waits for its client to resume before
  // being expired (<= 0 disables lingering: sessions are not resumable).
  double session_linger = 30.0;
  // DECISION frames retained per session for resume replay; a client
  // whose resume point has fallen out of this ring cannot resume. Must
  // be >= max_write_queue, so a session dropped for a full write queue
  // can always replay every decision that was queued.
  std::size_t decision_replay = 8192;
  // Cap on simultaneously lingering sessions; the oldest is expired
  // early when the cap is hit.
  std::size_t max_lingering = 256;
  // Seed for resume-token generation (identity, not security).
  std::uint64_t token_seed = 0x7C0FFEEULL;

  // --- sharding & aggregation (ISSUE 8) ------------------------------
  std::size_t reactors = 1;           // event-loop threads (>= 1)
  // Max leaf subscriptions the daemon's FleetAggregator accepts.
  std::size_t agg_fanin = 16;
  // Leaf mode: stream decided windows' GPVs to this parent hpcapd
  // ("" = not a leaf). agg_coverage lists the parent-side synopsis
  // indices this leaf owns (empty = 0..m-1 of the local model).
  std::string parent_host;
  std::uint16_t parent_port = 0;
  std::vector<std::uint16_t> agg_coverage;
  std::string leaf_name = "leaf";

  // --- closed-loop advisory admission (ISSUE 9) ----------------------
  // When enabled, every decided window also feeds a fleet-wide AIMD
  // admission-cap controller (src/ctrl/admission.h); the resulting cap
  // and actuation counters are surfaced as ctrl_* STATS entries so an
  // external front door can enforce them. Advisory only: the daemon
  // itself never sheds samples or decisions.
  bool ctrl_advisory = false;
  double ctrl_min_cap = 1.0;
  double ctrl_max_cap = 1e6;
};

// One relaxed-atomic counter. The sharded daemon's stats are fleet-wide
// sums bumped concurrently from every reactor thread; relaxed ordering
// is enough (they order nothing, they only count). The operators keep
// the single-reactor call sites (`++stats_.x`, `stats_.x += n`) and
// every test's reads (`stats().x == 3`) source-compatible.
class StatCounter {
 public:
  StatCounter() noexcept = default;
  StatCounter(const StatCounter& o) noexcept : v_(o.load()) {}
  StatCounter& operator=(const StatCounter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(std::uint64_t n) noexcept {
    v_.store(n, std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return load(); }
  StatCounter& operator++() noexcept {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

struct ServerStats {
  StatCounter connections_accepted;
  StatCounter connections_closed;
  StatCounter accepts_rejected;  // fd exhaustion: pending conn drained
  StatCounter timeouts;
  StatCounter frames_in;
  StatCounter frames_out;
  StatCounter malformed_frames;
  StatCounter hellos;
  StatCounter hellos_rejected;
  StatCounter ticks_in;
  StatCounter slots_present;
  StatCounter slots_missing;
  StatCounter windows;
  StatCounter windows_discarded;  // per-tier windows failing the gap check
  StatCounter rows_rejected;      // per-tier rows failing RowValidator
  StatCounter decisions;
  StatCounter decisions_shed;  // non-resumable sessions only
  StatCounter write_queue_overflows;  // peers dropped for a full queue
  StatCounter control_rejected;  // RELOAD/SHUTDOWN refused by policy
  StatCounter reloads;
  StatCounter reload_failures;
  // Session resume.
  StatCounter sessions_detached;  // sessions parked on disconnect
  StatCounter sessions_resumed;
  StatCounter sessions_expired;   // linger deadline passed, state freed
  StatCounter resume_rejected;    // bad/expired token or mismatched ask
  StatCounter batches_deduped;    // replayed batches skipped by seq
  // Sharding & aggregation.
  StatCounter handoffs;           // accepted fds posted to another shard
  StatCounter cross_shard_resumes;  // resumes claimed across reactors
  StatCounter agg_subscribes;
  StatCounter agg_windows_in;     // leaf VOTES windows merged
  StatCounter fleet_decisions;    // fleet windows decided by aggregation
  StatCounter write_calls;        // ::sendmsg calls that moved bytes
};

class Server;

// One unit of cross-reactor mail. Posted under the target shard's
// mailbox lock, drained on its loop thread after a wake().
struct ShardEnvelope {
  enum class Kind {
    kAcceptedFd,      // handoff: adopt this accepted socket
    kEvictToken,      // park this live session for a cross-shard resume
    kFleetDecisions,  // aggregation fan-out to a session living here
    kBeginShutdown,   // daemon-wide drain
  };
  Kind kind = Kind::kAcceptedFd;
  int fd = -1;
  std::uint64_t token = 0;
  std::vector<DecisionFrame> decisions;
};

// The shared spine of a sharded daemon: fleet-wide stats, the linger /
// live-session directory, the parent-side FleetAggregator, and one
// mailbox per reactor. A standalone Server owns a private group, so the
// single- and multi-reactor paths run identical code.
class ShardGroup {
 public:
  explicit ShardGroup(std::uint64_t token_seed);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  // Registration happens before any reactor thread starts, so the shard
  // table is immutable while concurrent; returns the shard id.
  std::size_t register_shard(EventLoop* loop, Server* server);
  std::size_t size() const noexcept { return shards_.size(); }
  Server* server(std::size_t shard) const;

  // Mailbox post + wake. Safe from any thread.
  void post(std::size_t shard, ShardEnvelope env);
  // Swaps the shard's mailbox out (called on its loop thread).
  std::vector<ShardEnvelope> take_mail(std::size_t shard);

  // Cross-shard-unique resume tokens: one atomic splitmix64 stream.
  std::uint64_t next_token() noexcept;

  ServerStats stats;

  // Directory of sessions not currently attached on some reactor
  // (lingering) plus where every live session token resides. Guarded
  // by `mu`; SessionState is defined in server.cpp. `mu` is leaf-level:
  // no mailbox post or enqueue happens while it is held (hpcap_lint's
  // reactor-confinement rule enforces it; see docs/API.md "Concurrency
  // contract" for the full hierarchy).
  struct Directory;
  util::Mutex mu;
  // The pointer itself is immutable after construction; everything
  // behind it is directory state and needs `mu`.
  const std::unique_ptr<Directory> dir HPCAP_PT_GUARDED_BY(mu);

  // Fleet-wide advisory admission controller (cfg.ctrl_advisory);
  // created by the first Server before any reactor thread starts. Fed
  // under ctrl_mu (leaf-level, like mu: nothing is posted or enqueued
  // while it is held).
  util::Mutex ctrl_mu;
  std::unique_ptr<ctrl::CapAdmissionController> ctrl
      HPCAP_PT_GUARDED_BY(ctrl_mu);

 private:
  struct Shard;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> token_state_;
};

class Server {
 public:
  // The server borrows `loop`, `source` and (when non-null) `group`; all
  // must outlive it. A null `group` makes a self-contained daemon: the
  // server owns a private single-shard group (role must be kStandalone).
  // Throws std::invalid_argument on an invalid cfg.
  Server(EventLoop& loop, core::MonitorSource& source, ServerConfig cfg,
         ShardGroup* group = nullptr,
         ShardRole role = ShardRole::kStandalone);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens (role permitting); throws std::runtime_error on
  // socket failure.
  void start();
  std::uint16_t port() const noexcept { return port_; }

  // SIGHUP path: reloads the model from the source's original path.
  // Loop-thread only (hpcapd calls it from the loop's wake handler).
  void request_reload();

  // Graceful stop: refuse new connections, flush queued frames, then stop
  // the loop (hard deadline cfg.shutdown_grace). Loop-thread only. In a
  // group, the first shard to enter broadcasts kBeginShutdown to the
  // rest; re-entry is a no-op.
  void begin_shutdown();

  // Processes every envelope in this shard's mailbox. Must run on the
  // loop thread — ShardedServer invokes it from the loop's wake handler.
  void drain_mailbox();

  // Takes ownership of an accepted socket (handoff target). Loop-thread
  // only.
  void adopt_fd(int fd);

  // Leaf mode: stream every decided window's GPV to `uplink` (borrowed;
  // may be null to detach). The first streaming session becomes the
  // uplink's feed.
  void set_uplink(Uplink* uplink) noexcept { uplink_ = uplink; }

  const ServerStats& stats() const noexcept { return stats_; }
  std::size_t active_connections() const noexcept { return conns_.size(); }
  std::size_t lingering_sessions() const;  // locks the group directory
  bool draining() const noexcept { return draining_; }
  ShardGroup& group() noexcept { return *group_; }

 private:
  struct Connection;
  struct ResumeAsk;
  struct PendingResume;
  struct Claim;

  void accept_ready();
  void handle_io(int fd, bool readable, bool writable);
  void handle_frame(Connection& c, const FrameRef& frame);
  void handle_hello(Connection& c, const HelloRequest& req);
  void handle_batch(Connection& c, std::span<const std::uint8_t> payload);
  void handle_aggregate(Connection& c, std::span<const std::uint8_t> payload);
  void handle_agg_subscribe(Connection& c, const AggregateSubscribe& req);
  void handle_agg_votes(Connection& c, const AggregateBatch& batch);
  void handle_stats(Connection& c);
  void handle_reload(Connection& c, const ReloadRequest& req);
  void handle_shutdown(Connection& c);
  // Decides every window pending in the session's StreamPipeline,
  // records them in the replay ring and enqueues the DECISION frames; it
  // does not flush. In leaf mode also offers each window's GPV to the
  // uplink.
  void flush_decisions(Connection& c);
  // Coalesced cumulative ACK: overwrites an unsent ACK at the queue tail
  // instead of stacking a new one. Never one further up the queue — that
  // ACK would then claim decisions still queued behind it.
  void enqueue_ack(Connection& c);
  // Resume replay pump: while the connection is replaying retained
  // decisions, tops the write queue up to a watermark from the ring.
  void feed_replay(Connection& c);
  // Pops a recycled outbound buffer (cleared, capacity retained) or a
  // fresh one; returned to the pool by flush_writes once fully sent.
  std::vector<std::uint8_t> take_spare(Connection& c);

  // `frame` must be a full encoded frame. On a full queue a resumable
  // session is doomed for replay; otherwise DECISION frames are
  // sheddable and everything else is control traffic that survives
  // unless the queue is full of unread control frames, which dooms the
  // connection. Callers
  // batch frames and flush once; the flush points are (a) the end of
  // handle_io, (b) a core::kObserveBlock decision block filling mid-batch,
  // (c) here, when the queue is full, before anything is shed or
  // dropped, and (d) paths that enqueue onto a connection other than the
  // one being serviced (fleet delivery, mailbox and timer callbacks).
  void enqueue(Connection& c, FrameType type, std::vector<std::uint8_t> frame);
  // Neither enqueue nor flush_writes ever destroys the Connection —
  // frame handlers up the stack still hold references into it. A send
  // failure (or a drained close_after_flush queue) only marks it doomed;
  // handle_io performs the close once the handler stack has unwound.
  void flush_writes(Connection& c);
  void doom(Connection& c, const char* why);
  void close_connection(int fd, const char* why);
  void sweep_deadlines();
  void arm_sweep();

  // Resume plumbing across the group directory (see server.cpp).
  void resume(Connection& c, ResumeAsk ask);
  Claim claim_lingering(const ResumeAsk& ask);
  void attach_resumed(Connection& c, std::unique_ptr<SessionState> s,
                      std::uint32_t resume_from);
  // Answers a handshake with a HELLO_ACK or, for an aggregate session, a
  // SUBSCRIBE_REPLY. Accepted and resumed replies describe c.session; a
  // rejected one carries `message` as its reason and closes the
  // connection once flushed.
  enum class Handshake { kRejected, kAccepted, kResumed };
  void reply_handshake(Connection& c, bool aggregate, Handshake kind,
                       const std::string& message);
  // The connection on this reactor whose session holds `token`, or null.
  Connection* find_session(std::uint64_t token);
  // Whether a session dropped now could be resumed: lingering enabled
  // and the daemon not draining.
  bool resumable() const noexcept;
  void retry_pending_resumes();
  // Fans freshly decided fleet windows out to subscriber sessions
  // wherever they live (this shard inline, other shards by mail,
  // lingering rings directly). Called with group.mu NOT held.
  void fan_out_fleet(std::vector<DecisionFrame> decided);
  void deliver_fleet_local(Connection& c, std::span<const DecisionFrame> d);
  // Retains a decided window in the session's replay ring and queues its
  // DECISION, unless a resume replay is feeding the queue from the ring.
  void emit_decision(Connection& c, const DecisionFrame& frame);
  // Permanently retires a session (linger expiry / non-resumable close):
  // aggregate subscriptions unsubscribe and their final degraded windows
  // fan out.
  void retire_session(SessionState& s);

  StatsReply build_stats() const;

  EventLoop& loop_;
  core::MonitorSource& source_;
  ServerConfig cfg_;
  std::unique_ptr<ShardGroup> owned_group_;  // standalone only
  ShardGroup* group_ = nullptr;
  ShardRole role_ = ShardRole::kStandalone;
  std::size_t shard_id_ = 0;
  ServerStats& stats_;  // = group_->stats (fleet-wide)
  int listen_fd_ = -1;
  int reserve_fd_ = -1;  // EMFILE parachute: see accept_ready()
  std::uint16_t port_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::vector<PendingResume> pending_resumes_;
  EventLoop::TimerId resume_timer_ = 0;
  std::size_t next_shard_ = 0;  // handoff round-robin cursor
  Uplink* uplink_ = nullptr;
  bool draining_ = false;
  bool control_allowed_ = true;  // resolved from control_policy in start()
  EventLoop::TimerId sweep_timer_ = 0;
};

// Shared daemon runner for `hpcapd` and `hpcapctl serve`: loads the model,
// builds loop(s) + server(s) (cfg.reactors of them), installs
// SIGINT/SIGTERM (graceful stop) and SIGHUP (model reload) handlers when
// `install_signals`, starts the leaf Uplink when cfg.parent_host is set,
// prints the listening address, and runs until stopped. Returns the
// process exit code.
int run_daemon(const ServerConfig& cfg, const std::string& model_path,
               bool install_signals);

}  // namespace hpcap::net

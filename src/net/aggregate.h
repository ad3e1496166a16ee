// Hierarchical aggregation — the fleet tier of hpcapd (ISSUE 8).
//
// A capacity-monitoring fleet is a two-level tree: leaf hpcapds run full
// sessions against their local agents and export, per decided window, the
// exact GPV (vote + abstention bit per synopsis) the decision was made
// from; a parent hpcapd merges those disjoint vote slices and re-runs the
// coordinated predictor over the fleet-wide GPV. Because a synopsis reads
// only its own tier's row, leaf-local votes are bit-identical to what a
// flat daemon seeing every tier would compute — so the parent's decision
// stream equals the flat single-daemon stream exactly (tests assert it).
//
// Two pieces live here:
//
//   * FleetAggregator — the parent-side merge. Subscriptions claim
//     disjoint synopsis index sets (bounded fan-in); VOTES windows fill a
//     pending fleet GPV per window index, and a window is decided the
//     moment every active subscriber has reported it, strictly in window
//     order (the predictor is stateful). A retired subscriber's bits
//     simply stay invalid — the predictor degrades exactly as it does for
//     a blacked-out tier. NOT thread-safe: the owner (Server's
//     ShardGroup) serializes calls under its own mutex.
//
//   * Uplink — the leaf-side feed. A worker thread owns a blocking
//     Client in aggregate mode (SUBSCRIBE handshake, VOTES batches with
//     the same seq/ACK/resume resilience as SAMPLE_BATCH) so reactor
//     threads never block on the parent: offer() is a mutex-guarded
//     enqueue + condition signal. Fleet decisions stream back as
//     ordinary DECISION frames and are buffered for the caller.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/monitor_source.h"
#include "core/pipeline.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/retry.h"
#include "util/mutex.h"

namespace hpcap::net {

// The DECISION frame for window `window_index`, decided as `d`.
DecisionFrame to_decision_frame(std::uint32_t window_index,
                                const core::CoordinatedPredictor::Decision& d);

class FleetAggregator {
 public:
  struct Options {
    std::size_t fanin = 16;  // max simultaneous subscribers
  };

  // Instantiates a private monitor from `source` (history reset); its
  // synopsis count is the fleet GPV width subscriptions index into.
  FleetAggregator(const core::MonitorSource& source, Options opts);

  // Registers `token` as covering `coverage` (global synopsis indices,
  // in the order its VOTES cells will arrive). Throws std::runtime_error
  // with a wire-ready message on: empty/duplicate/out-of-range indices,
  // overlap with a live subscription, fan-in exhausted, or a join after
  // the first window was decided (a late joiner cannot retroactively
  // vote on history the predictor already consumed).
  void subscribe(std::uint64_t token, std::vector<std::uint16_t> coverage);

  // Merges one subscriber's windows. Replayed windows (index below the
  // next undecided one) are ignored — resume replay is idempotent here.
  // Returns every window that became decidable, in window order.
  std::vector<DecisionFrame> apply(std::uint64_t token,
                                   std::span<const AggregateWindow> windows);

  // Permanently retires `token` (linger expiry / non-resumable close).
  // Windows waiting only on it decide now with its bits invalid.
  std::vector<DecisionFrame> unsubscribe(std::uint64_t token);

  bool has(std::uint64_t token) const {
    return subs_.find(token) != subs_.end();
  }
  const std::vector<std::uint16_t>* coverage_of(std::uint64_t token) const;
  std::vector<std::uint64_t> subscriber_tokens() const;
  std::uint16_t num_synopses() const noexcept { return width_; }
  std::uint32_t model_version() const noexcept { return model_version_; }
  std::uint32_t next_window() const noexcept { return next_window_; }
  std::size_t pending_windows() const noexcept { return pending_.size(); }

 private:
  // One undecided window's partial fleet GPV.
  struct Pending {
    std::vector<int> votes;
    std::vector<std::uint8_t> valid;
    std::size_t reporters = 0;  // distinct subscribers merged so far
    std::vector<std::uint64_t> reported;  // which (small: <= fanin)
  };

  Pending& slot(std::uint32_t window_index);
  DecisionFrame decide(std::uint32_t window_index, Pending& p);
  // Pops every leading in-order window all live subscribers reported.
  void drain_ready(std::vector<DecisionFrame>& out);

  core::CapacityMonitor monitor_;
  std::uint32_t model_version_ = 0;
  Options opts_;
  std::uint16_t width_ = 0;
  std::vector<std::uint8_t> claimed_;  // per synopsis: owned by a live sub
  std::unordered_map<std::uint64_t, std::vector<std::uint16_t>> subs_;
  std::map<std::uint32_t, Pending> pending_;  // ordered by window index
  std::uint32_t next_window_ = 0;
  bool started_ = false;  // first decision emitted; joins now refused
};

class Uplink {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string leaf = "leaf";  // diagnostics identity sent upstream
    // Global synopsis indices this leaf covers, in the order offer()'s
    // vote spans are laid out. Required, non-empty.
    std::vector<std::uint16_t> coverage;
    std::size_t max_batch_windows = 64;  // VOTES windows per wire frame
    RetryPolicy retry;  // default-constructed = resilient
  };

  struct Stats {
    std::uint64_t offered = 0;         // windows accepted into the queue
    std::uint64_t dropped_foreign = 0;  // offers from non-feed sessions
    // Windows degraded to all-abstain because the queue hit its bound
    // during a parent outage. Contiguity is preserved (the parent sees
    // every index, some fully masked) so the merge never stalls.
    std::uint64_t degraded_overflow = 0;
    std::uint64_t sent_windows = 0;    // windows shipped to the parent
    std::uint64_t outages = 0;         // send cycles that hit an error
    bool subscribed = false;           // handshake currently established
  };

  explicit Uplink(Options opts);
  ~Uplink();
  Uplink(const Uplink&) = delete;
  Uplink& operator=(const Uplink&) = delete;

  void start();  // spawns the worker; connect/subscribe happen there
  void stop();   // signals, joins; safe to call twice

  // Feed seam, called on a reactor thread as windows decide. The first
  // session token seen becomes the uplink's feed; offers carrying any
  // other token are dropped and counted (one leaf daemon streams one
  // fleet slice — concurrent local sessions would interleave window
  // indices incoherently). votes/valid are the monitor's window-major
  // export for one window, coverage.size() wide.
  void offer(std::uint64_t session_token, std::uint32_t window_index,
             std::span<const int> votes,
             std::span<const std::uint8_t> valid);

  // Fleet decisions the parent has streamed back (window order).
  std::vector<DecisionFrame> drain_fleet_decisions();

  Stats stats() const;

  // The covered synopsis indices, in offer()'s cell order. Immutable
  // after construction, so safe to read from any thread.
  const std::vector<std::uint16_t>& coverage() const noexcept {
    return opts_.coverage;
  }

 private:
  struct QueuedWindow {
    std::uint32_t window_index = 0;
    std::vector<int> votes;
    std::vector<std::uint8_t> valid;
  };

  void worker();
  // One connect+subscribe+stream cycle; returns on error (worker loops).
  void run_session();

  Options opts_;

  // mu_ guards every field below it; the worker thread and the reactor
  // threads meet nowhere else. In the canonical lock hierarchy
  // (util/mutex.h) this is a leaf: nothing is posted, woken, or
  // enqueued while it is held.
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::deque<QueuedWindow> queue_ HPCAP_GUARDED_BY(mu_);
  std::deque<DecisionFrame> fleet_decisions_ HPCAP_GUARDED_BY(mu_);
  // First offering session wins.
  std::uint64_t feed_token_ HPCAP_GUARDED_BY(mu_) = 0;
  // Cross-cycle resume identity: the parent-issued session token, and
  // the next fleet DECISION window this uplink expects (SUBSCRIBE's
  // resume_from_window asks the parent to replay from here). Within one
  // cycle the Client tracks both itself; these survive a full outage.
  std::uint64_t resume_token_ HPCAP_GUARDED_BY(mu_) = 0;
  std::uint32_t next_fleet_window_ HPCAP_GUARDED_BY(mu_) = 0;
  Stats stats_ HPCAP_GUARDED_BY(mu_);
  bool stop_ HPCAP_GUARDED_BY(mu_) = false;
  bool running_ HPCAP_GUARDED_BY(mu_) = false;

  std::thread thread_;
};

}  // namespace hpcap::net

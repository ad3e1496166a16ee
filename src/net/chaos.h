// In-process network chaos proxy for exercising the wire layer.
//
// The resilience story of hpcapd — reconnect with jittered backoff,
// CRC-checked frames, exactly-once session resume — is only worth
// claiming if it survives an actively hostile transport. ChaosProxy is a
// thread-per-link TCP relay that sits between a net::Client and a
// net::Server on loopback and injects the failure modes real networks
// produce: connection resets mid-stream, stalls, partial writes that
// shear frames at arbitrary byte boundaries, single-byte corruption
// (caught by the CRC trailer), short reads, and full-link partitions.
//
// All faults are drawn from a seeded Rng — one stream per accepted link,
// split from ChaosPlan::seed by the link's accept ordinal — so a failing
// schedule reproduces from its seed. The headline property the chaos
// tests assert is that the *decision stream* delivered to each client is
// bit-identical to a fault-free run under any plan: faults may slow the
// session down, but exactly-once resume means they can never duplicate,
// drop, or reorder a decision.
//
// Mirrors counters::FaultPlan/FaultInjector (the sampling-path chaos
// layer): a default plan injects nothing, mixed(rate) is the one-knob
// sweep used by benchmarks, and stats expose exactly what was injected.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/rng.h"

namespace hpcap::net {

// Rates are per forwarded chunk (one upstream/downstream read) unless
// noted. A default-constructed plan forwards bytes untouched.
struct ChaosPlan {
  // Per-connection: drawn once at accept. A doomed link forwards a
  // seeded number of bytes, then both sides are reset (RST, not FIN).
  double reset_rate = 0.0;        // P(this link dies mid-stream)
  std::size_t reset_after_max = 65536;  // byte budget ceiling for a doomed link

  // Per-chunk faults.
  double stall_rate = 0.0;        // P(pause the link before forwarding)
  double stall_ms = 40.0;         // how long a stall lasts
  double partial_rate = 0.0;      // P(forward a prefix, breathe, then the rest)
  double corrupt_rate = 0.0;      // P(flip one byte of the chunk)
  double short_read_rate = 0.0;   // P(read at most a few bytes this turn)
  double partition_rate = 0.0;    // P(entering a both-direction freeze)
  double partition_ms = 80.0;     // how long a partition episode lasts

  std::uint64_t seed = 0xC4A05;

  bool enabled() const noexcept {
    return reset_rate > 0.0 || stall_rate > 0.0 || partial_rate > 0.0 ||
           corrupt_rate > 0.0 || short_read_rate > 0.0 ||
           partition_rate > 0.0;
  }

  // The one-knob mixed plan: `rate` is the headline chaos intensity
  // (e.g. 0.05 for "5% chaos"), split across all fault kinds in fixed
  // proportions so sweeps move every failure mode together. Resets and
  // partitions are kept an order of magnitude rarer than byte-level
  // faults — each one costs a full reconnect/resume round trip.
  static ChaosPlan mixed(double rate, std::uint64_t seed = 0xC4A05);
};

// Counts of injected faults, for reporting and plan verification.
// Snapshot semantics: stats() returns a consistent-enough copy while
// pump threads are live (each counter is independently atomic).
struct ChaosStats {
  std::uint64_t connections = 0;     // links accepted
  std::uint64_t chunks = 0;          // reads forwarded (or faulted)
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t resets = 0;          // links killed by reset_rate
  std::uint64_t stalls = 0;
  std::uint64_t partial_writes = 0;
  std::uint64_t corrupted_bytes = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t partitions = 0;
  std::uint64_t killed = 0;          // links cut by kill_connections()
};

// Seeded TCP relay: listens on an ephemeral loopback port and forwards
// every accepted connection to `upstream_port`, one pump thread per
// link handling both directions. Thread-safe; destructor stops the
// accept loop, severs all links, and joins every thread.
class ChaosProxy {
 public:
  ChaosProxy(ChaosPlan plan, std::uint16_t upstream_port,
             const std::string& upstream_host = "127.0.0.1");
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  // The port clients should connect to instead of the server's.
  std::uint16_t port() const noexcept { return port_; }

  // Severs every live link right now (both sockets shut down hard).
  // New connections are still accepted: this is the deterministic
  // "outage" hook for reconnect tests, not a shutdown.
  void kill_connections();

  // While true, accepted links are held open but nothing is forwarded
  // in either direction — a total partition that outlasts any plan
  // episode. Used to drive clients into their backoff schedule.
  void set_blackhole(bool on) noexcept { blackhole_.store(on); }

  ChaosStats stats() const;

  const ChaosPlan& plan() const noexcept { return plan_; }

 private:
  struct Link;

  void accept_loop();
  void reap_done_links();
  void pump(Link& link);

  ChaosPlan plan_;
  std::string upstream_host_;
  std::uint16_t upstream_port_ = 0;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> blackhole_{false};

  // Guards the link table; a leaf lock (nothing is posted or enqueued
  // while it is held — pump threads never take it).
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<Link>> links_ HPCAP_GUARDED_BY(mu_);
  std::uint64_t next_link_id_ HPCAP_GUARDED_BY(mu_) = 0;

  std::thread accept_thread_;

  struct Counters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> bytes_forwarded{0};
    std::atomic<std::uint64_t> resets{0};
    std::atomic<std::uint64_t> stalls{0};
    std::atomic<std::uint64_t> partial_writes{0};
    std::atomic<std::uint64_t> corrupted_bytes{0};
    std::atomic<std::uint64_t> short_reads{0};
    std::atomic<std::uint64_t> partitions{0};
    std::atomic<std::uint64_t> killed{0};
  };
  Counters counters_;
};

}  // namespace hpcap::net

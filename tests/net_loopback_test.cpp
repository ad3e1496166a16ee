// End-to-end loopback tests for hpcapd: a real Server on a real TCP
// socket, driven by the client library, checked against the in-process
// pipeline.
//
// The central claim of src/net/ is that putting the monitor behind a
// socket changes nothing about its decisions: for the same slot stream,
// the DECISION frames coming back over the wire are bit-identical to
// running InstanceAggregator -> RowValidator -> observe_masked in
// process. These tests assert exactly that — across concurrent
// connections, with 5% mixed fault injection, and across a RELOAD that
// swaps the model mid-stream (live sessions keep their instance; no
// connection drops).
//
// The server runs on its own thread; the test thread talks to it only
// through sockets, MonitorSource (thread-safe), and EventLoop::wake —
// the suite carries the tsan label to prove that split is sound.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/monitor_source.h"
#include "core/pipeline.h"
#include "core/validate.h"
#include "counters/fault.h"
#include "counters/metric_catalog.h"
#include "counters/sampler.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/rng.h"

namespace hpcap {
namespace {

using net::DecisionFrame;
using net::SampleBatch;
using net::Tick;

// --- model fixture --------------------------------------------------------

// Rows are full hpc-catalog width (what an agent ships); the synopses
// project the first few metrics, as trained synopses project a feature
// subset of the catalog.
std::size_t catalog_dim() { return counters::hpc_catalog().size(); }

ml::Dataset tier_dataset(std::uint64_t seed) {
  const std::size_t dim = catalog_dim();
  std::vector<std::string> names(dim);
  for (std::size_t i = 0; i < dim; ++i) names[i] = "m" + std::to_string(i);
  ml::Dataset d(names);
  Rng rng(seed);
  std::vector<double> row(dim);
  for (int i = 0; i < 240; ++i) {
    const int y = i % 2;
    for (std::size_t k = 0; k < dim; ++k) row[k] = rng.uniform();
    row[0] = y + rng.normal(0.0, 0.2);
    row[2] = y + rng.normal(0.0, 0.3);
    d.add(row, y);
  }
  return d;
}

core::CapacityMonitor make_trained_monitor(std::uint64_t seed) {
  core::SynopsisBuilder builder;
  std::vector<core::Synopsis> synopses;
  synopses.push_back(builder.build(
      tier_dataset(seed), {"mix", "app", 0, "hpc", ml::LearnerKind::kTan}));
  synopses.push_back(builder.build(
      tier_dataset(seed + 2),
      {"mix", "db", 1, "hpc", ml::LearnerKind::kTan}));
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = 2;
  opts.synopsis_tiers = {0, 1};
  core::CapacityMonitor monitor(std::move(synopses), opts);
  Rng rng(seed + 5);
  std::vector<std::vector<double>> rows(2, std::vector<double>(catalog_dim()));
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2;
    for (auto& r : rows) {
      for (auto& v : r) v = rng.uniform();
      r[0] = label + rng.normal(0.0, 0.2);
      r[2] = label + rng.normal(0.0, 0.3);
    }
    monitor.train_instance(rows, label, label ? 1 : -1);
  }
  monitor.end_training_run();
  return monitor;
}

std::string serialize(const core::CapacityMonitor& monitor) {
  std::ostringstream os;
  core::save_monitor(os, monitor);
  return os.str();
}

// Synopsis construction dominates test time (forward selection with
// 10-fold CV per candidate attribute), so the two model bundles the suite
// needs are built once and reused.
const std::string& bundle_a() {
  static const std::string bytes = serialize(make_trained_monitor(33));
  return bytes;
}
const std::string& bundle_b() {
  static const std::string bytes = serialize(make_trained_monitor(72));
  return bytes;
}

// --- server harness -------------------------------------------------------

// Owns the loop thread. The test thread must not touch Server members
// while the loop runs; it communicates via sockets and the wake flags.
struct Harness {
  core::MonitorSource source;
  net::EventLoop loop;
  std::optional<net::Server> server;
  std::thread thread;
  std::atomic<bool> want_stop{false};

  Harness(core::MonitorSource src, net::ServerConfig cfg)
      : source(std::move(src)) {
    server.emplace(loop, source, cfg);
    loop.set_wake_handler([this] {
      if (want_stop.exchange(false)) server->begin_shutdown();
    });
    server->start();
    thread = std::thread([this] { loop.run(); });
  }

  ~Harness() { stop(); }

  void stop() {
    if (!thread.joinable()) return;
    want_stop = true;
    loop.wake();
    thread.join();
  }

  std::uint16_t port() const { return server->port(); }
};

// --- in-process reference pipeline ---------------------------------------

// Mirrors the server's per-connection session exactly (server.cpp
// handle_batch/finish_window): same aggregators, same validator, same
// private monitor instance, same window bookkeeping.
struct ReferenceSession {
  core::CapacityMonitor monitor;
  core::RowValidator validator;
  std::vector<counters::InstanceAggregator> aggregators;
  std::vector<std::vector<double>> rows;
  std::vector<std::uint8_t> mask;
  std::uint32_t window_index = 0;
  std::vector<DecisionFrame> decisions;

  ReferenceSession(const core::MonitorSource& source, int num_tiers,
                   int window, const net::ServerConfig& cfg)
      : monitor(source.instantiate()) {
    monitor.predictor().reset_history();
    core::RowValidator::Options vopts;
    vopts.dim = catalog_dim();
    vopts.max_abs = cfg.validator_max_abs;
    validator = core::RowValidator(vopts);
    for (int t = 0; t < num_tiers; ++t)
      aggregators.emplace_back(catalog_dim(), window,
                               cfg.max_missing_fraction, cfg.aggregator_trim);
    rows.assign(static_cast<std::size_t>(num_tiers),
                std::vector<double>(catalog_dim(), 0.0));
    mask.assign(static_cast<std::size_t>(num_tiers), 0);
  }

  void feed(const Tick& tick) {
    bool closed = false;
    for (std::size_t t = 0; t < tick.tiers.size(); ++t) {
      const auto& slot = tick.tiers[t];
      counters::InstanceAggregator::SlotResult result;
      if (slot.present)
        result = aggregators[t].add_slot(slot.values);
      else
        result = aggregators[t].mark_missing();
      if (!result.window_closed) continue;
      closed = true;
      if (result.valid) {
        rows[t] = std::move(*result.instance);
        mask[t] =
            validator.validate(rows[t]) == core::RowVerdict::kValid ? 1 : 0;
      } else {
        std::fill(rows[t].begin(), rows[t].end(), 0.0);
        mask[t] = 0;
      }
    }
    if (!closed) return;
    const auto d = monitor.observe_masked(rows, mask);
    DecisionFrame frame;
    frame.window_index = window_index++;
    frame.state = static_cast<std::uint8_t>(d.state);
    frame.confident = d.confident ? 1 : 0;
    frame.degraded = d.degraded ? 1 : 0;
    frame.hc = d.hc;
    frame.bottleneck_tier = d.bottleneck_tier;
    frame.staleness = d.staleness;
    decisions.push_back(frame);
  }
};

// --- deterministic slot streams ------------------------------------------

// A reproducible stream of sampling ticks; fault_rate > 0 runs every tier
// through counters::FaultInjector with FaultPlan::mixed — dropped slots,
// blackouts, stuck/garbage/spiked rows — exactly the degraded regime the
// in-process pipeline is tested under.
std::vector<Tick> make_stream(int num_tiers, int ticks, double fault_rate,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<counters::FaultInjector> injectors;
  if (fault_rate > 0.0) {
    for (int t = 0; t < num_tiers; ++t)
      injectors.emplace_back(counters::FaultPlan::mixed(fault_rate, seed),
                             0x6b43a9b5 + static_cast<std::uint64_t>(t));
  }
  std::vector<Tick> stream(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i) {
    Tick& tick = stream[static_cast<std::size_t>(i)];
    tick.tiers.resize(static_cast<std::size_t>(num_tiers));
    const int level = (i / 200) % 2;  // alternating load regimes
    for (int t = 0; t < num_tiers; ++t) {
      std::vector<double> row(catalog_dim());
      for (auto& v : row) v = rng.uniform();
      row[0] = level + rng.normal(0.0, 0.2);
      row[2] = level + rng.normal(0.0, 0.3);
      auto& slot = tick.tiers[static_cast<std::size_t>(t)];
      if (!injectors.empty()) {
        const auto fate = injectors[static_cast<std::size_t>(t)].step();
        if (fate != counters::FaultInjector::SampleFate::kOk) continue;
        injectors[static_cast<std::size_t>(t)].perturb(row);
      }
      slot.present = true;
      slot.values = std::move(row);
    }
  }
  return stream;
}

void expect_identical(const std::vector<DecisionFrame>& wire,
                      const std::vector<DecisionFrame>& ref,
                      const char* who) {
  ASSERT_EQ(wire.size(), ref.size()) << who;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(wire[i].window_index, ref[i].window_index) << who << " @" << i;
    ASSERT_EQ(wire[i].state, ref[i].state) << who << " @" << i;
    ASSERT_EQ(wire[i].confident, ref[i].confident) << who << " @" << i;
    ASSERT_EQ(wire[i].degraded, ref[i].degraded) << who << " @" << i;
    ASSERT_EQ(wire[i].hc, ref[i].hc) << who << " @" << i;
    ASSERT_EQ(wire[i].bottleneck_tier, ref[i].bottleneck_tier)
        << who << " @" << i;
    ASSERT_EQ(wire[i].staleness, ref[i].staleness) << who << " @" << i;
  }
}

net::ServerConfig test_config() {
  net::ServerConfig cfg;
  cfg.num_tiers = 2;
  cfg.shutdown_grace = 1.0;
  cfg.sweep_period = 0.1;
  return cfg;
}

// --- the headline test ----------------------------------------------------

// Three agents stream concurrently to a fresh daemon, `batch_ticks` ticks
// per SAMPLE_BATCH, and every decision must match the reference session.
void expect_concurrent_wire_matches_reference(int batch_ticks) {
  constexpr int kClients = 3;
  constexpr int kTicks = 10000;  // sampling intervals per connection
  constexpr int kWindow = 4;

  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  // Per client: its own slot stream (client 0 clean, 1 and 2 with 5%
  // mixed faults), a wire connection, and a reference session.
  std::vector<std::vector<Tick>> streams;
  std::vector<net::Client> clients(kClients);
  std::vector<ReferenceSession> refs;
  std::vector<std::vector<DecisionFrame>> wire(kClients);
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(make_stream(cfg.num_tiers, kTicks, c == 0 ? 0.0 : 0.05,
                                  1000 + static_cast<std::uint64_t>(c)));
    refs.emplace_back(h.source, cfg.num_tiers, kWindow, cfg);
    clients[c].connect("127.0.0.1", h.port());
    net::HelloRequest hello;
    hello.agent = "loopback-" + std::to_string(c);
    hello.level = "hpc";
    hello.num_tiers = static_cast<std::uint16_t>(cfg.num_tiers);
    hello.window = kWindow;
    const auto reply = clients[c].hello(hello);
    ASSERT_TRUE(reply.accepted) << reply.message;
    ASSERT_EQ(reply.model_version, 1u);
    ASSERT_EQ(reply.dims.size(), 2u);
    ASSERT_EQ(reply.dims[0], catalog_dim());
  }

  // Interleave the three connections batch by batch so they are streaming
  // concurrently, draining decisions as they arrive (which also keeps the
  // server's write queues far from the shed bound).
  for (int start = 0; start < kTicks; start += batch_ticks) {
    for (int c = 0; c < kClients; ++c) {
      SampleBatch batch;
      batch.first_tick = static_cast<std::uint32_t>(start);
      batch.ticks.assign(streams[c].begin() + start,
                         streams[c].begin() + start + batch_ticks);
      clients[c].send_batch(batch);
      for (int i = start; i < start + batch_ticks; ++i)
        refs[c].feed(streams[c][i]);
      for (const auto& d : clients[c].drain_decisions()) wire[c].push_back(d);
    }
  }
  const std::size_t expected = kTicks / kWindow;
  for (int c = 0; c < kClients; ++c) {
    while (wire[c].size() < expected)
      wire[c].push_back(clients[c].next_decision());
    ASSERT_EQ(refs[c].decisions.size(), expected);
    expect_identical(wire[c], refs[c].decisions,
                     ("client " + std::to_string(c)).c_str());
  }

  // The daemon agrees it served every window of every client.
  const auto stats = clients[0].stats();
  EXPECT_EQ(stats.value("ticks_in"),
            static_cast<std::uint64_t>(kClients) * kTicks);
  EXPECT_EQ(stats.value("decisions"),
            static_cast<std::uint64_t>(kClients) * expected);
  EXPECT_EQ(stats.value("decisions_shed"), 0u);
  EXPECT_EQ(stats.value("connections_active"),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.value("protocol_version"), net::kProtocolVersion);
}

TEST(NetLoopback, WireDecisionsBitIdenticalAcrossConcurrentConnections) {
  // Frame granularity must not change a single decision: one tick per
  // frame, a small batch and the headline batch (each divides 10000).
  for (const int batch_ticks : {1, 16, 250}) {
    SCOPED_TRACE("batch_ticks " + std::to_string(batch_ticks));
    expect_concurrent_wire_matches_reference(batch_ticks);
  }
}

TEST(NetLoopback, HugeTimeoutsClampInsteadOfUndefinedCast) {
  // Regression: Client converted timeout_seconds to ::poll milliseconds
  // with a raw double→int cast, which is undefined behavior once the
  // product leaves int's range — reachable from the CLI with any
  // --handshake-timeout over ~24.8 days (INT_MAX ms). The conversion
  // now saturates, so an effectively-infinite timeout still connects
  // and handshakes promptly against a live daemon.
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  net::Client client;
  client.connect("127.0.0.1", h.port(), 1e18);
  net::HelloRequest hello;
  hello.agent = "huge-timeout";
  hello.level = "hpc";
  hello.num_tiers = static_cast<std::uint16_t>(cfg.num_tiers);
  hello.window = 4;
  const auto reply = client.hello(hello, 1e18);
  ASSERT_TRUE(reply.accepted) << reply.message;
  // And the other direction: a NaN timeout must degrade to a zero-wait
  // poll (an immediate "timed out"), never an unbounded block or UB.
  // No samples were sent, so no DECISION can ever arrive — the throw is
  // deterministic.
  EXPECT_THROW(
      client.next_decision(std::numeric_limits<double>::quiet_NaN()),
      std::runtime_error);
}

// --- RELOAD lifecycle -----------------------------------------------------

TEST(NetLoopback, ReloadMidStreamKeepsSessionsAndDropsNoConnections) {
  constexpr int kTicks = 2000;
  constexpr int kWindow = 2;
  const std::string model_path = "net_loopback_reload_model.tmp";
  {
    std::ofstream f(model_path);
    f << bundle_a();
  }
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_file(model_path), cfg);

  std::vector<net::Client> clients(2);
  std::vector<ReferenceSession> refs;
  std::vector<std::vector<DecisionFrame>> wire(2);
  std::vector<std::vector<Tick>> streams;
  for (int c = 0; c < 2; ++c) {
    streams.push_back(
        make_stream(cfg.num_tiers, kTicks, 0.05, 400 + static_cast<std::uint64_t>(c)));
    refs.emplace_back(h.source, cfg.num_tiers, kWindow, cfg);
    clients[c].connect("127.0.0.1", h.port());
    const auto reply = clients[c].hello(
        {"reload-client", "hpc", static_cast<std::uint16_t>(cfg.num_tiers),
         kWindow});
    ASSERT_TRUE(reply.accepted) << reply.message;
    ASSERT_EQ(reply.model_version, 1u);
  }

  const auto pump = [&](int from, int to) {
    for (int c = 0; c < 2; ++c) {
      SampleBatch batch;
      batch.first_tick = static_cast<std::uint32_t>(from);
      batch.ticks.assign(streams[c].begin() + from, streams[c].begin() + to);
      clients[c].send_batch(batch);
      for (int i = from; i < to; ++i) refs[c].feed(streams[c][i]);
      for (const auto& d : clients[c].drain_decisions()) wire[c].push_back(d);
    }
  };

  pump(0, kTicks / 2);

  // Swap the model file for a *different* trained bundle and RELOAD over
  // the wire, mid-stream.
  {
    std::ofstream f(model_path);
    f << bundle_b();
  }
  const auto ack = clients[0].reload("");
  ASSERT_TRUE(ack.ok) << ack.message;
  EXPECT_EQ(ack.model_version, 2u);

  // A corrupt replacement must be rejected and change nothing.
  {
    std::ofstream f(model_path + ".bad");
    f << "hpcap-monitor v1 2 garbage";
  }
  const auto bad = clients[0].reload(model_path + ".bad");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.model_version, 2u);

  // Both live sessions continue on their original model instance:
  // decisions stay bit-identical to the reference built from model v1.
  pump(kTicks / 2, kTicks);
  const std::size_t expected = kTicks / kWindow;
  for (int c = 0; c < 2; ++c) {
    while (wire[c].size() < expected)
      wire[c].push_back(clients[c].next_decision());
    expect_identical(wire[c], refs[c].decisions, "reload survivor");
    EXPECT_TRUE(clients[c].connected());
  }

  // No connection was dropped by either reload, and a *new* session gets
  // the new model generation.
  const auto stats = clients[0].stats();
  EXPECT_EQ(stats.value("connections_closed"), 0u);
  EXPECT_EQ(stats.value("reloads"), 1u);
  EXPECT_EQ(stats.value("reload_failures"), 1u);
  EXPECT_EQ(stats.value("model_version"), 2u);
  net::Client late;
  late.connect("127.0.0.1", h.port());
  const auto late_reply = late.hello(
      {"late", "hpc", static_cast<std::uint16_t>(cfg.num_tiers), kWindow});
  ASSERT_TRUE(late_reply.accepted);
  EXPECT_EQ(late_reply.model_version, 2u);

  std::remove(model_path.c_str());
  std::remove((model_path + ".bad").c_str());
}

// --- backpressure ---------------------------------------------------------

namespace raw {

int connect_to(std::uint16_t port, int rcvbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

// Reads until EOF or timeout; returns true iff the peer closed.
bool wait_for_eof(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  std::uint8_t buf[4096];
  const double deadline_ms = timeout_ms;
  double waited = 0;
  while (waited < deadline_ms) {
    const int r = ::poll(&p, 1, 100);
    waited += 100;
    if (r <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0 && errno == EINTR) continue;  // sanitizers interrupt syscalls
    if (n < 0) return false;
  }
  return false;
}

// Like wait_for_eof but also accepts an abortive close: a daemon that
// drops a misbehaving peer may close with replies still undelivered,
// which surfaces as ECONNRESET rather than a clean EOF.
bool wait_for_disconnect(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  std::uint8_t buf[4096];
  const double deadline_ms = timeout_ms;
  double waited = 0;
  while (waited < deadline_ms) {
    const int r = ::poll(&p, 1, 100);
    waited += 100;
    if (r <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return errno == ECONNRESET || errno == EPIPE;
  }
  return false;
}

// The next whole frame from `fd`, read through `in`; nullopt on EOF,
// error or timeout.
std::optional<net::Frame> next_frame(int fd, net::FrameAssembler& in,
                                     int timeout_ms) {
  std::uint8_t buf[4096];
  int waited = 0;
  for (;;) {
    if (auto frame = in.next()) return frame;
    if (waited >= timeout_ms) return std::nullopt;
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, 100);
    waited += 100;
    if (r <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    in.append(buf, static_cast<std::size_t>(n));
  }
}

// A v2 agent on a raw socket that has completed its HELLO.
int hello_v2(std::uint16_t port, net::FrameAssembler& in, int num_tiers,
             std::uint16_t window) {
  const int fd = connect_to(port, 0);
  send_all(fd, net::encode_hello_request(
                   {"raw-v2", "hpc", static_cast<std::uint16_t>(num_tiers),
                    window}));
  const auto reply = next_frame(fd, in, 5000);
  EXPECT_TRUE(reply && reply->type == net::FrameType::kHello);
  if (reply) {
    EXPECT_TRUE(net::decode_hello_reply(reply->payload).accepted);
  }
  return fd;
}

}  // namespace raw

TEST(NetLoopback, NonDrainingAgentShedsOldestDecisionsNotControlFrames) {
  net::ServerConfig cfg = test_config();
  cfg.max_write_queue = 8;
  cfg.socket_sndbuf = 4096;  // tiny in-flight budget -> queue fills fast
  // No lingering: sessions are not resumable, which is what gets shed
  // against — a resumable session is dropped for replay instead (see
  // ResumableSessionIsDroppedNotShedWhenItStopsDraining).
  cfg.session_linger = 0;
  Harness h(core::MonitorSource::from_bytes(bundle_a()),
            cfg);

  // A raw socket with a tiny receive buffer that HELLOs, then streams
  // window-per-tick samples and never reads: every tick yields a DECISION
  // the agent does not drain. Each batch's ACK is a control frame that
  // is never shed, so the stream goes out in 4 batches: their ACKs
  // leave the queue room for decisions to shed.
  const int fd = raw::connect_to(h.port(), 2048);
  raw::send_all(fd, net::encode_hello_request(
                        {"stalled", "hpc",
                         static_cast<std::uint16_t>(cfg.num_tiers), 1}));
  const auto stream = make_stream(cfg.num_tiers, 4000, 0.0, 77);
  for (int start = 0; start < 4000; start += 1000) {
    SampleBatch batch;
    batch.batch_seq = static_cast<std::uint64_t>(start / 1000) + 1;
    batch.first_tick = static_cast<std::uint32_t>(start);
    batch.ticks.assign(stream.begin() + start, stream.begin() + start + 1000);
    raw::send_all(fd, net::encode_sample_batch(batch));
  }

  // A healthy second connection observes the shedding through STATS (a
  // control frame, which is never shed even on the stalled connection).
  // It completes a HELLO so the server's handshake timeout cannot drop
  // it while it waits out the stalled stream under sanitizer slowdown.
  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  ASSERT_TRUE(observer
                  .hello({"observer", "hpc",
                          static_cast<std::uint16_t>(cfg.num_tiers), 1})
                  .accepted);
  std::uint64_t shed = 0;
  for (int i = 0; i < 100 && shed == 0; ++i) {
    shed = observer.stats().value("decisions_shed");
    if (shed == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(shed, 0u) << "stalled agent never triggered decision shedding";
  // Shedding starts after only max_write_queue windows, while the server
  // is still digesting the 4000-tick stream — keep polling until it has
  // consumed all of it before asserting on the totals. The wait is
  // progress-based, not wall-clock-based: under sanitizer slowdown and
  // parallel test load the drain can take arbitrarily long, so only a
  // server that stops making progress for 10 s ends the loop early.
  std::uint64_t windows = 0;
  int stalled_polls = 0;
  while (windows < 4000 && stalled_polls < 200) {
    const std::uint64_t now = observer.stats().value("windows");
    stalled_polls = now == windows ? stalled_polls + 1 : 0;
    windows = now;
    if (windows < 4000)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const auto stats = observer.stats();
  EXPECT_EQ(stats.value("windows"), 4000u);
  EXPECT_LT(stats.value("decisions_shed"), 4000u);  // shed, not discarded all
  ::close(fd);
}

// The resumable counterpart: a resumable session is promised exactly-once
// decision delivery, so the daemon must never silently shed its
// decisions. When such a peer stops draining, the connection is dropped
// and the session parked — every undelivered decision stays in the
// replay ring for redelivery on resume.
TEST(NetLoopback, ResumableSessionIsDroppedNotShedWhenItStopsDraining) {
  net::ServerConfig cfg = test_config();
  cfg.max_write_queue = 8;
  cfg.socket_sndbuf = 4096;
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  const int fd = raw::connect_to(h.port(), 2048);
  raw::send_all(fd, net::encode_hello_request(
                        {"stalled-v2", "hpc",
                         static_cast<std::uint16_t>(cfg.num_tiers), 1}));
  // The daemon may drop the connection while batches are still being
  // written (that drop is the behavior under test), so sends after the
  // drop are allowed to fail — stream until the first send error.
  const auto stream = make_stream(cfg.num_tiers, 4000, 0.0, 78);
  for (int start = 0; start < 4000; start += 500) {
    SampleBatch batch;
    batch.batch_seq = static_cast<std::uint64_t>(start / 500) + 1;
    batch.first_tick = static_cast<std::uint32_t>(start);
    batch.ticks.assign(stream.begin() + start, stream.begin() + start + 500);
    const auto bytes = net::encode_sample_batch(batch);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    if (off < bytes.size()) break;
  }

  // The daemon drops the peer once the write queue fills. Watch for the
  // drop through a second connection before touching this socket:
  // reading it would drain the daemon's writes, and the queue fills only
  // while nobody reads.
  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  ASSERT_TRUE(observer
                  .hello({"observer", "hpc",
                          static_cast<std::uint16_t>(cfg.num_tiers), 1})
                  .accepted);
  for (int i = 0; i < 400; ++i) {
    if (observer.stats().value("sessions_detached") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The daemon may still hold batches of ours it never read, and closing
  // a socket with unread input sends RST: the drop can surface as
  // ECONNRESET rather than EOF.
  EXPECT_TRUE(raw::wait_for_disconnect(fd, 20000))
      << "daemon never dropped the non-draining resumable peer";
  ::close(fd);

  const auto stats = observer.stats();
  EXPECT_GE(stats.value("write_queue_overflows"), 1u);
  EXPECT_EQ(stats.value("decisions_shed"), 0u)
      << "a resumable session's decisions must never be shed";
  EXPECT_EQ(stats.value("sessions_detached"), 1u);
  EXPECT_EQ(stats.value("sessions_lingering"), 1u)
      << "the dropped session must be parked for resume, not destroyed";
}

// Flushes are deferred to the end of the wakeup, so one 32-window
// decision block can queue more frames than max_write_queue holds. For a
// peer that reads, that is no overflow: enqueue flushes before it sheds
// or drops, and the resumable session keeps its connection.
TEST(NetLoopback, DrainingV2SessionSurvivesBlockLargerThanWriteQueue) {
  net::ServerConfig cfg = test_config();
  cfg.max_write_queue = 8;
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  net::Client client;
  client.connect("127.0.0.1", h.port());
  ASSERT_TRUE(client
                  .hello({"block-reader", "hpc",
                          static_cast<std::uint16_t>(cfg.num_tiers), 1})
                  .accepted);
  ReferenceSession ref(h.source, cfg.num_tiers, 1, cfg);
  SampleBatch batch;
  batch.ticks = make_stream(cfg.num_tiers, 64, 0.0, 79);
  for (const auto& tick : batch.ticks) ref.feed(tick);
  client.send_batch(batch);
  std::vector<DecisionFrame> wire;
  try {
    while (wire.size() < ref.decisions.size())
      wire.push_back(client.next_decision());
  } catch (const std::exception& e) {
    FAIL() << "after " << wire.size() << " of 64 decisions: " << e.what();
  }
  expect_identical(wire, ref.decisions, "block larger than write queue");
  const auto stats = client.stats();
  EXPECT_EQ(stats.value("write_queue_overflows"), 0u);
  EXPECT_EQ(stats.value("sessions_detached"), 0u);
}

// A peer that streams control requests while never reading its socket
// must not grow the daemon's write queue without bound: once the queue is
// full of unsheddable control frames, the connection is dropped.
TEST(NetLoopback, ControlFloodFromNonReadingPeerIsDropped) {
  net::ServerConfig cfg = test_config();
  cfg.max_write_queue = 8;
  cfg.socket_sndbuf = 4096;
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  const int fd = raw::connect_to(h.port(), 2048);
  std::vector<std::uint8_t> flood;
  for (int i = 0; i < 2000; ++i) {
    const auto frame = net::encode_stats_request();
    flood.insert(flood.end(), frame.begin(), frame.end());
  }
  raw::send_all(fd, flood);

  // While this socket stays unread, the in-flight budget (sndbuf + the
  // peer's rcvbuf) caps out and every further reply lands in the write
  // queue, so the overflow is inevitable; observe it through a healthy
  // second connection before touching the flooded socket.
  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  std::uint64_t overflows = 0;
  for (int i = 0; i < 100 && overflows == 0; ++i) {
    overflows = observer.stats().value("write_queue_overflows");
    if (overflows == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(overflows, 1u)
      << "daemon kept queueing control replies for a non-reading peer";
  // The misbehaving connection was dropped (the abortive close may
  // surface as ECONNRESET rather than EOF), and the daemon still serves
  // new sessions.
  EXPECT_TRUE(raw::wait_for_disconnect(fd, 5000));
  ::close(fd);
  const auto reply = observer.hello({"post-flood", "hpc", 2, 1});
  EXPECT_TRUE(reply.accepted) << reply.message;
}

// Protocol v1 is retired: a v1 HELLO (version byte 1, no resume fields,
// no CRC trailer) is a malformed frame, so the daemon closes the
// connection and counts it.
TEST(NetLoopback, V1HelloIsMalformedAndClosesTheConnection) {
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  ASSERT_EQ(observer.stats().value("malformed_frames"), 0u);

  std::vector<std::uint8_t> payload;
  net::put_string(payload, "legacy");
  net::put_string(payload, "hpc");
  net::put_u16(payload, static_cast<std::uint16_t>(cfg.num_tiers));
  net::put_u16(payload, 4);  // window
  std::vector<std::uint8_t> v1_hello;
  net::put_u32(v1_hello, net::kMagic);
  net::put_u8(v1_hello, 1);  // version
  net::put_u8(v1_hello, static_cast<std::uint8_t>(net::FrameType::kHello));
  net::put_u16(v1_hello, 0);  // reserved
  net::put_u32(v1_hello, static_cast<std::uint32_t>(payload.size()));
  v1_hello.insert(v1_hello.end(), payload.begin(), payload.end());
  const int fd = raw::connect_to(h.port(), 0);
  raw::send_all(fd, v1_hello);
  EXPECT_TRUE(raw::wait_for_disconnect(fd, 5000))
      << "daemon kept a connection that spoke protocol v1";
  ::close(fd);

  const auto stats = observer.stats();
  EXPECT_EQ(stats.value("malformed_frames"), 1u);
  EXPECT_EQ(stats.value("hellos"), 0u);
}

// A session dropped for a full write queue resumes from its replay ring,
// which must therefore hold at least max_write_queue decisions; a smaller
// ring would refuse the resume and lose the queued decisions.
TEST(NetLoopback, ServerRejectsDecisionReplayBelowWriteQueue) {
  core::MonitorSource source = core::MonitorSource::from_bytes(bundle_a());
  net::EventLoop loop;
  net::ServerConfig cfg = test_config();
  cfg.max_write_queue = 256;
  cfg.decision_replay = 4;
  EXPECT_THROW(net::Server(loop, source, cfg), std::invalid_argument);
  cfg.decision_replay = 255;
  EXPECT_THROW(net::Server(loop, source, cfg), std::invalid_argument);
  cfg.decision_replay = 256;
  EXPECT_NO_THROW(net::Server(loop, source, cfg));
}

// Regression for a use-after-free: a peer that disconnects mid-batch made
// the decision send fail with EPIPE/ECONNRESET inside handle_batch's tick
// loop; the old code destroyed the Connection from inside flush_writes
// while the loop kept dereferencing it. Now a failed send only marks the
// connection doomed and the close happens after the handler unwinds —
// this test (under the asan label) hammers exactly that window.
TEST(NetLoopback, PeerVanishingMidBatchLeavesServerHealthy) {
  net::ServerConfig cfg = test_config();
  cfg.max_write_queue = 8;
  cfg.socket_sndbuf = 4096;
  // No lingering: a non-resumable session is shed against but kept
  // connected, so the server is still mid-write when the abortive close
  // lands below. (A resumable session would be dropped for replay as
  // soon as the queue filled, ending the race this test exists to
  // provoke.)
  cfg.session_linger = 0;
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  const auto stream = make_stream(cfg.num_tiers, 2000, 0.0, 913);
  // Vary the delay between shipping the batches and the RST so the reset
  // lands at different points of the server's tick loop.
  for (const int delay_us : {0, 500, 2000, 8000}) {
    const int fd = raw::connect_to(h.port(), 2048);
    raw::send_all(fd, net::encode_hello_request(
                          {"vanisher", "hpc",
                           static_cast<std::uint16_t>(cfg.num_tiers), 1}));
    // window=1: every tick closes a window and emits a DECISION, so the
    // write path is exercised continuously while the batches process.
    for (int start = 0; start < 2000; start += 500) {
      SampleBatch batch;
      batch.batch_seq = static_cast<std::uint64_t>(start / 500) + 1;
      batch.first_tick = static_cast<std::uint32_t>(start);
      batch.ticks.assign(stream.begin() + start, stream.begin() + start + 500);
      raw::send_all(fd, net::encode_sample_batch(batch));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    // Abortive close: unread decision bytes make the kernel send RST, so
    // the daemon's next send inside the tick loop fails hard.
    const linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd);
  }

  // Whatever point each RST hit, the daemon must still be alive, closed
  // the dead sessions, and serve a fresh stream correctly.
  net::Client after;
  after.connect("127.0.0.1", h.port());
  const auto reply = after.hello({"survivor", "hpc", 2, 1});
  ASSERT_TRUE(reply.accepted) << reply.message;
  std::uint64_t closed = 0;
  for (int i = 0; i < 100 && closed < 4; ++i) {
    closed = after.stats().value("connections_closed");
    if (closed < 4) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(closed, 4u);
  ReferenceSession ref(h.source, cfg.num_tiers, 1, cfg);
  const auto tail = make_stream(cfg.num_tiers, 8, 0.0, 914);
  SampleBatch batch;
  batch.ticks = tail;
  after.send_batch(batch);
  for (const auto& tick : tail) ref.feed(tick);
  std::vector<DecisionFrame> wire;
  while (wire.size() < ref.decisions.size())
    wire.push_back(after.next_decision());
  expect_identical(wire, ref.decisions, "post-vanish survivor");
}

// --- write coalescing -----------------------------------------------------

// A SAMPLE_BATCH's DECISIONs and its ACK are queued by the same wakeup and
// leave in one sendmsg. An observer reads the daemon's write_calls across
// K batches sent one at a time: K writes, plus the observer's own first
// STATS reply (the second is counted only after it is built).
TEST(NetLoopback, BatchDecisionsAndAckShareOneWrite) {
  constexpr int kBatches = 8;
  constexpr int kTicks = 16;
  constexpr std::uint16_t kWindow = 4;
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  net::FrameAssembler in;
  const int fd = raw::hello_v2(h.port(), in, cfg.num_tiers, kWindow);
  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  const std::uint64_t before = observer.stats().value("write_calls");

  const auto stream = make_stream(cfg.num_tiers, kBatches * kTicks, 0.0, 80);
  std::uint32_t decisions = 0;
  for (int b = 0; b < kBatches; ++b) {
    SampleBatch batch;
    batch.batch_seq = static_cast<std::uint64_t>(b) + 1;
    batch.first_tick = static_cast<std::uint32_t>(b * kTicks);
    batch.ticks.assign(stream.begin() + b * kTicks,
                       stream.begin() + (b + 1) * kTicks);
    raw::send_all(fd, net::encode_sample_batch(batch));
    for (;;) {
      const auto frame = raw::next_frame(fd, in, 5000);
      ASSERT_TRUE(frame) << "no ACK for batch " << batch.batch_seq;
      if (frame->type == net::FrameType::kDecision) {
        ++decisions;
        continue;
      }
      ASSERT_EQ(frame->type, net::FrameType::kAck);
      if (net::decode_ack(frame->payload).last_applied_seq ==
          batch.batch_seq)
        break;
    }
  }
  EXPECT_EQ(decisions, static_cast<std::uint32_t>(kBatches * kTicks / kWindow));
  const std::uint64_t after = observer.stats().value("write_calls");
  EXPECT_EQ(after - before, static_cast<std::uint64_t>(kBatches) + 1)
      << "each batch's decisions and ACK must share one sendmsg";
  ::close(fd);
}

// With flushes deferred, several batches' DECISIONs and ACKs sit in one
// queue. A cumulative ACK may only be coalesced with an unsent ACK at the
// queue tail: folding it into an earlier one would deliver ACK(n) ahead
// of batch n's decisions.
TEST(NetLoopback, AcksNeverOvertakeTheirDecisions) {
  constexpr int kBatches = 4;
  constexpr int kTicks = 8;
  constexpr std::uint16_t kWindow = 4;
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  net::FrameAssembler in;
  const int fd = raw::hello_v2(h.port(), in, cfg.num_tiers, kWindow);
  // All batches in one send, so one daemon recv carries several frames.
  const auto stream = make_stream(cfg.num_tiers, kBatches * kTicks, 0.0, 81);
  std::vector<std::uint8_t> burst;
  for (int b = 0; b < kBatches; ++b) {
    SampleBatch batch;
    batch.batch_seq = static_cast<std::uint64_t>(b) + 1;
    batch.first_tick = static_cast<std::uint32_t>(b * kTicks);
    batch.ticks.assign(stream.begin() + b * kTicks,
                       stream.begin() + (b + 1) * kTicks);
    const auto bytes = net::encode_sample_batch(batch);
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  raw::send_all(fd, burst);

  std::uint32_t decisions = 0;
  std::uint64_t last_seq = 0;
  while (last_seq < static_cast<std::uint64_t>(kBatches)) {
    const auto frame = raw::next_frame(fd, in, 5000);
    ASSERT_TRUE(frame) << "stream ended at ACK seq " << last_seq;
    if (frame->type == net::FrameType::kDecision) {
      EXPECT_EQ(net::decode_decision(frame->payload).window_index, decisions);
      ++decisions;
      continue;
    }
    ASSERT_EQ(frame->type, net::FrameType::kAck);
    const auto ack = net::decode_ack(frame->payload);
    EXPECT_LE(ack.next_window, decisions)
        << "ACK seq " << ack.last_applied_seq
        << " claims decisions not yet delivered";
    EXPECT_GT(ack.last_applied_seq, last_seq);
    last_seq = ack.last_applied_seq;
  }
  EXPECT_EQ(decisions, static_cast<std::uint32_t>(kBatches * kTicks / kWindow));
  ::close(fd);
}

// --- control-plane authorization ------------------------------------------

TEST(NetLoopback, ControlPolicyDenyRefusesReloadAndShutdown) {
  net::ServerConfig cfg = test_config();
  cfg.control_policy = net::ControlPolicy::kDeny;
  Harness h(core::MonitorSource::from_bytes(bundle_a()), cfg);

  // RELOAD gets an explicit refusal reply; the model is untouched.
  net::Client c;
  c.connect("127.0.0.1", h.port());
  const auto ack = c.reload("/tmp/should-not-be-read.model");
  EXPECT_FALSE(ack.ok);
  EXPECT_NE(ack.message.find("disabled"), std::string::npos) << ack.message;
  EXPECT_EQ(ack.model_version, 1u);

  // SHUTDOWN is refused by dropping the peer; the daemon keeps serving.
  const int fd = raw::connect_to(h.port(), 0);
  raw::send_all(fd, net::encode_shutdown());
  EXPECT_TRUE(raw::wait_for_eof(fd, 5000));
  ::close(fd);

  net::Client after;
  after.connect("127.0.0.1", h.port());
  const auto stats = after.stats();
  EXPECT_EQ(stats.value("control_rejected"), 2u);
  EXPECT_EQ(stats.value("reloads"), 0u);
  const auto reply = after.hello({"still-serving", "hpc", 2, 1});
  EXPECT_TRUE(reply.accepted) << reply.message;
}

// --- connection hygiene ---------------------------------------------------

TEST(NetLoopback, HalfOpenConnectionsAreReapedByHandshakeTimeout) {
  net::ServerConfig cfg = test_config();
  cfg.handshake_timeout = 0.2;
  cfg.sweep_period = 0.05;
  Harness h(core::MonitorSource::from_bytes(bundle_a()),
            cfg);
  const int fd = raw::connect_to(h.port(), 0);
  // Never HELLO: the deadline sweep must close us.
  EXPECT_TRUE(raw::wait_for_eof(fd, 5000));
  ::close(fd);
}

TEST(NetLoopback, MalformedBytesCloseTheConnection) {
  Harness h(core::MonitorSource::from_bytes(bundle_a()),
            test_config());
  const int fd = raw::connect_to(h.port(), 0);
  const std::vector<std::uint8_t> junk(64, 0x5A);
  raw::send_all(fd, junk);
  EXPECT_TRUE(raw::wait_for_eof(fd, 5000));
  ::close(fd);
}

TEST(NetLoopback, HelloRejectsBadLevelTiersAndWindow) {
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle_a()),
            cfg);
  {
    net::Client c;
    c.connect("127.0.0.1", h.port());
    const auto r = c.hello({"x", "quantum", 2, 1});
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.message.find("level"), std::string::npos);
  }
  {
    net::Client c;
    c.connect("127.0.0.1", h.port());
    const auto r = c.hello({"x", "hpc", 5, 1});
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.message.find("tier"), std::string::npos);
  }
  {
    net::Client c;
    c.connect("127.0.0.1", h.port());
    const auto r = c.hello({"x", "hpc", 2, 0});
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.message.find("window"), std::string::npos);
  }
  {
    // A window too short for the configured trim cannot be aggregated:
    // the HELLO is refused and the daemon keeps serving.
    net::ServerConfig trimmed = cfg;
    trimmed.aggregator_trim = 2;
    Harness t(core::MonitorSource::from_bytes(bundle_a()), trimmed);
    net::Client c;
    c.connect("127.0.0.1", t.port());
    const auto r = c.hello({"x", "hpc", 2, 4});
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.message.find("trimmed_samples"), std::string::npos);
    net::Client ok;
    ok.connect("127.0.0.1", t.port());
    EXPECT_TRUE(ok.hello({"y", "hpc", 2, 8}).accepted);
  }
}

TEST(NetLoopback, ShutdownAcksDrainsAndStopsTheLoop) {
  Harness h(core::MonitorSource::from_bytes(bundle_a()),
            test_config());
  net::Client c;
  c.connect("127.0.0.1", h.port());
  const auto reply = c.hello({"x", "hpc", 2, 1});
  ASSERT_TRUE(reply.accepted);
  c.shutdown_server();  // waits for the SHUTDOWN ack
  h.thread.join();      // loop exits once connections drain
  EXPECT_EQ(h.server->active_connections(), 0u);
  EXPECT_TRUE(h.server->draining());
}

}  // namespace
}  // namespace hpcap

// Chaos tests for the resilient wire layer: a real Server, a real
// Client with a RetryPolicy, and a ChaosProxy between them injecting
// seeded resets, stalls, partial writes, byte corruption, short reads
// and partitions.
//
// The headline claim (ISSUE 7): under ChaosPlan::mixed(0.05), a
// 3-client x 10k-interval loopback run completes with a decision stream
// BIT-IDENTICAL to the fault-free in-process reference — exactly-once
// session resume means chaos can slow a session down but can never
// duplicate, drop, or reorder a decision. A second run with the same
// seeds produces the same stream (the ctest chaos.double_run guard also
// diffs two full process runs; set HPCAP_CHAOS_DUMP to emit the stream).
//
// Also here: the EINTR regression test — a thread hammers the client
// thread with signals mid-transfer, which before the io::*_retry
// wrappers surfaced as spurious transport errors.
#include <gtest/gtest.h>

#include <pthread.h>
#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/monitor_source.h"
#include "core/pipeline.h"
#include "core/validate.h"
#include "counters/metric_catalog.h"
#include "counters/sampler.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/sharded.h"
#include "util/rng.h"

namespace hpcap {
namespace {

using net::ChaosPlan;
using net::ChaosProxy;
using net::DecisionFrame;
using net::SampleBatch;
using net::Tick;

// --- model + harness fixtures (mirrors net_loopback_test) -----------------

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

const std::string& bundle() {
  static const std::string bytes = [] {
    core::SynopsisBuilder builder;
    std::vector<core::Synopsis> synopses;
    synopses.push_back(builder.build(
        tier_dataset(33), {"mix", "app", 0, "hpc", ml::LearnerKind::kTan}));
    synopses.push_back(builder.build(
        tier_dataset(35), {"mix", "db", 1, "hpc", ml::LearnerKind::kTan}));
    core::CoordinatedPredictor::Options opts;
    opts.num_tiers = 2;
    opts.synopsis_tiers = {0, 1};
    core::CapacityMonitor monitor(std::move(synopses), opts);
    Rng rng(38);
    std::vector<std::vector<double>> rows(
        2, std::vector<double>(catalog_dim()));
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
    std::ostringstream os;
    core::save_monitor(os, monitor);
    return os.str();
  }();
  return bytes;
}

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

// The in-process reference pipeline (same math the server runs).
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

std::vector<Tick> make_stream(int num_tiers, int ticks, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tick> stream(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i) {
    Tick& tick = stream[static_cast<std::size_t>(i)];
    tick.tiers.resize(static_cast<std::size_t>(num_tiers));
    const int level = (i / 200) % 2;
    for (int t = 0; t < num_tiers; ++t) {
      auto& slot = tick.tiers[static_cast<std::size_t>(t)];
      slot.present = true;
      slot.values.resize(catalog_dim());
      for (auto& v : slot.values) v = rng.uniform();
      slot.values[0] = level + rng.normal(0.0, 0.2);
      slot.values[2] = level + rng.normal(0.0, 0.3);
    }
  }
  return stream;
}

void expect_identical(const std::vector<DecisionFrame>& wire,
                      const std::vector<DecisionFrame>& ref,
                      const std::string& who) {
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

net::RetryPolicy test_policy() {
  net::RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff = 0.005;  // fast retries keep the suite quick
  policy.max_backoff = 0.2;
  policy.deadline = 30.0;
  return policy;
}

// Streams `ticks` intervals from `clients` concurrent sessions through a
// chaos proxy and asserts each client's decision stream is bit-identical
// to the in-process reference. Returns the per-client streams.
struct ChaosRun {
  std::vector<std::vector<DecisionFrame>> wire;
  net::ChaosStats chaos;
  std::vector<net::Client::SessionInfo> sessions;
};

ChaosRun run_chaos_session(const ChaosPlan& plan, int num_clients, int ticks,
                           int window, int batch_size) {
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle()), cfg);
  ChaosProxy proxy(plan, h.port());

  std::vector<std::vector<Tick>> streams;
  std::vector<net::Client> clients(static_cast<std::size_t>(num_clients));
  std::vector<ReferenceSession> refs;
  ChaosRun out;
  out.wire.resize(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    streams.push_back(make_stream(cfg.num_tiers, ticks,
                                  2000 + static_cast<std::uint64_t>(c)));
    refs.emplace_back(h.source, cfg.num_tiers, window, cfg);
    auto& client = clients[static_cast<std::size_t>(c)];
    client.set_retry_policy(test_policy());
    client.connect("127.0.0.1", proxy.port());
    net::HelloRequest hello;
    hello.agent = "chaos-" + std::to_string(c);
    hello.level = "hpc";
    hello.num_tiers = static_cast<std::uint16_t>(cfg.num_tiers);
    hello.window = static_cast<std::uint16_t>(window);
    const auto reply = client.hello(hello);
    EXPECT_TRUE(reply.accepted) << reply.message;
  }

  for (int start = 0; start < ticks; start += batch_size) {
    for (int c = 0; c < num_clients; ++c) {
      SampleBatch batch;
      batch.first_tick = static_cast<std::uint32_t>(start);
      batch.ticks.assign(streams[c].begin() + start,
                         streams[c].begin() + start + batch_size);
      clients[static_cast<std::size_t>(c)].send_batch(batch);
      for (int i = start; i < start + batch_size; ++i)
        refs[static_cast<std::size_t>(c)].feed(streams[c][i]);
      for (const auto& d :
           clients[static_cast<std::size_t>(c)].drain_decisions())
        out.wire[static_cast<std::size_t>(c)].push_back(d);
    }
  }
  const std::size_t expected =
      static_cast<std::size_t>(ticks) / static_cast<std::size_t>(window);
  for (int c = 0; c < num_clients; ++c) {
    auto& wire = out.wire[static_cast<std::size_t>(c)];
    try {
      while (wire.size() < expected)
        wire.push_back(clients[static_cast<std::size_t>(c)].next_decision(30.0));
    } catch (const std::exception& e) {
      // A drain failure is opaque without the session counters; dump them
      // before letting the test die.
      const auto s = clients[static_cast<std::size_t>(c)].session();
      ADD_FAILURE() << "client " << c << " drain failed at " << wire.size()
                    << "/" << expected << ": " << e.what()
                    << "\n  next_window=" << s.next_window
                    << " next_seq=" << s.next_seq << " acked_seq=" << s.acked_seq
                    << " pending=" << s.pending_batches
                    << " reconnects=" << s.reconnects
                    << " replayed=" << s.replayed_batches
                    << " deduped=" << s.deduped_decisions;
      throw;
    }
    expect_identical(wire, refs[static_cast<std::size_t>(c)].decisions,
                     "client " + std::to_string(c));
    out.sessions.push_back(clients[static_cast<std::size_t>(c)].session());
  }
  out.chaos = proxy.stats();
  return out;
}

// --- the tests ------------------------------------------------------------

TEST(NetChaos, CleanProxyIsTransparent) {
  const ChaosRun run = run_chaos_session(ChaosPlan{}, 1, 2000, 4, 250);
  EXPECT_EQ(run.chaos.connections, 1u);
  EXPECT_EQ(run.chaos.resets + run.chaos.corrupted_bytes +
                run.chaos.stalls + run.chaos.partial_writes +
                run.chaos.partitions + run.chaos.short_reads,
            0u);
  EXPECT_EQ(run.sessions[0].reconnects, 0u);
  EXPECT_GT(run.chaos.bytes_forwarded, 0u);
}

// The ISSUE 7 headline: 3 clients x 10k intervals under mixed(0.05),
// decision streams bit-identical to the fault-free reference. The ctest
// deflake guard (chaos_double_run.cmake) reruns this very test in two
// processes with HPCAP_CHAOS_TICKS trimming the soak length.
TEST(NetChaos, MixedChaosDecisionStreamBitIdenticalToCleanRun) {
  int ticks = 10000;
  if (const char* s = std::getenv("HPCAP_CHAOS_TICKS")) {
    const int v = std::atoi(s);
    if (v >= 1000) ticks = v - v % 1000;  // keep batch/window alignment
  }
  const ChaosRun run =
      run_chaos_session(ChaosPlan::mixed(0.05), 3, ticks, 4, 250);
  // The plan must actually have hurt: every byte-level fault kind fires
  // at this rate and chunk volume. (Resets are a 5% per-connection coin
  // and not certain here; ResetStormStillCompletes pins them.)
  EXPECT_GT(run.chaos.corrupted_bytes, 0u);
  EXPECT_GT(run.chaos.short_reads, 0u);
  EXPECT_GT(run.chaos.partial_writes, 0u);
  std::uint64_t reconnects = 0;
  for (const auto& s : run.sessions) reconnects += s.reconnects;
  EXPECT_GT(reconnects, 0u)
      << "chaos never forced a reconnect — the plan is too gentle to "
         "exercise resume";

  // Optional dump for the ctest double-run deflake guard: two separate
  // processes with the same seeds must produce byte-identical streams.
  if (const char* path = std::getenv("HPCAP_CHAOS_DUMP")) {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << path;
    for (std::size_t c = 0; c < run.wire.size(); ++c)
      for (const DecisionFrame& d : run.wire[c])
        std::fprintf(f, "%zu %u %u %u %u %d %d %d\n", c, d.window_index,
                     d.state, d.confident, d.degraded, d.hc,
                     d.bottleneck_tier, d.staleness);
    std::fclose(f);
  }
}

TEST(NetChaos, SameSeedSameDecisionStreamTwice) {
  const ChaosPlan plan = ChaosPlan::mixed(0.1, 0xD5EED);
  const ChaosRun a = run_chaos_session(plan, 1, 2000, 4, 100);
  const ChaosRun b = run_chaos_session(plan, 1, 2000, 4, 100);
  // Decision streams are identical run-to-run (both already matched the
  // reference inside run_chaos_session; this also pins stream equality).
  expect_identical(a.wire[0], b.wire[0], "second run");
}

// Every connection is doomed: the proxy RSTs each link after a seeded
// byte budget, forever. The client must keep clawing forward through
// resume — the stream still completes and still matches the reference.
TEST(NetChaos, ResetStormStillCompletes) {
  ChaosPlan plan;
  plan.reset_rate = 1.0;
  plan.reset_after_max = 1 << 18;  // budgets up to 256 KiB keep progress
  const ChaosRun run = run_chaos_session(plan, 1, 2000, 4, 100);
  EXPECT_GT(run.chaos.resets, 0u);
  EXPECT_GT(run.sessions[0].reconnects, 0u);
}

TEST(NetChaos, KilledConnectionsResumeExactlyOnce) {
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle()), cfg);
  ChaosProxy proxy(ChaosPlan{}, h.port());  // no random faults: kills only

  constexpr int kTicks = 3000;
  constexpr int kWindow = 4;
  constexpr int kBatch = 100;
  const auto stream = make_stream(cfg.num_tiers, kTicks, 99);
  ReferenceSession ref(h.source, cfg.num_tiers, kWindow, cfg);

  net::Client client;
  client.set_retry_policy(test_policy());
  client.connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(client
                  .hello({"killed", "hpc",
                          static_cast<std::uint16_t>(cfg.num_tiers), kWindow})
                  .accepted);

  std::vector<DecisionFrame> wire;
  int kills = 0;
  for (int start = 0; start < kTicks; start += kBatch) {
    if (start > 0 && start % 600 == 0) {
      proxy.kill_connections();  // deterministic outage between batches
      ++kills;
    }
    SampleBatch batch;
    batch.first_tick = static_cast<std::uint32_t>(start);
    batch.ticks.assign(stream.begin() + start, stream.begin() + start + kBatch);
    client.send_batch(batch);
    for (int i = start; i < start + kBatch; ++i) ref.feed(stream[i]);
    for (const auto& d : client.drain_decisions()) wire.push_back(d);
  }
  while (wire.size() < kTicks / kWindow) wire.push_back(client.next_decision(30.0));
  expect_identical(wire, ref.decisions, "killed client");

  const auto info = client.session();
  EXPECT_GE(info.reconnects, static_cast<std::uint64_t>(kills) - 1)
      << "most kills must have forced a visible recovery";
  EXPECT_GT(info.replayed_batches + info.deduped_decisions, 0u)
      << "resume never replayed anything — exactly-once was not exercised";
  EXPECT_GE(proxy.stats().killed, static_cast<std::uint64_t>(kills));

  // The server agrees: sessions were detached and resumed, none expired.
  const auto stats = client.stats();
  EXPECT_GE(stats.value("sessions_resumed"), 1u);
  EXPECT_EQ(stats.value("sessions_expired"), 0u);
}

// --- multi-reactor chaos (ISSUE 8) ----------------------------------------

// The sharded daemon behind the same kill harness: three clients, two
// reactors, deterministic hand-off round-robin. Every kill forces each
// client to reconnect, and the round-robin slots shift, so resumed
// sessions routinely land on a reactor that does not own their parked
// state — the cross-shard claim path runs under real outage pressure.
// The invariant is unchanged from the single-reactor suite: every
// client's decision stream is bit-identical to the in-process reference.
TEST(NetChaos, TwoReactorKilledConnectionsResumeBitIdentical) {
  net::ServerConfig cfg = test_config();
  cfg.reactors = 2;

  core::MonitorSource source = core::MonitorSource::from_bytes(bundle());
  net::ShardedServer server(source, cfg);
  server.start();
  std::thread daemon([&server] { server.join(); });
  ChaosProxy proxy(ChaosPlan{}, server.port());  // kills only

  constexpr int kTicks = 3000;
  constexpr int kWindow = 4;
  constexpr int kBatch = 100;
  constexpr int kClients = 3;

  std::vector<std::vector<Tick>> streams;
  std::vector<ReferenceSession> refs;
  std::vector<net::Client> clients(kClients);
  std::vector<std::vector<DecisionFrame>> wire(kClients);
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(make_stream(cfg.num_tiers, kTicks,
                                  7000 + static_cast<std::uint64_t>(c)));
    refs.emplace_back(source, cfg.num_tiers, kWindow, cfg);
    auto& client = clients[static_cast<std::size_t>(c)];
    client.set_retry_policy(test_policy());
    client.connect("127.0.0.1", proxy.port());
    const auto reply = client.hello({"sharded-chaos-" + std::to_string(c),
                                     "hpc",
                                     static_cast<std::uint16_t>(cfg.num_tiers),
                                     kWindow});
    ASSERT_TRUE(reply.accepted) << reply.message;
  }

  int kills = 0;
  for (int start = 0; start < kTicks; start += kBatch) {
    if (start > 0 && start % 600 == 0) {
      proxy.kill_connections();
      ++kills;
    }
    for (int c = 0; c < kClients; ++c) {
      SampleBatch batch;
      batch.first_tick = static_cast<std::uint32_t>(start);
      batch.ticks.assign(streams[c].begin() + start,
                         streams[c].begin() + start + kBatch);
      clients[static_cast<std::size_t>(c)].send_batch(batch);
      for (int i = start; i < start + kBatch; ++i)
        refs[static_cast<std::size_t>(c)].feed(streams[c][i]);
      for (const auto& d :
           clients[static_cast<std::size_t>(c)].drain_decisions())
        wire[static_cast<std::size_t>(c)].push_back(d);
    }
  }
  for (int c = 0; c < kClients; ++c) {
    auto& w = wire[static_cast<std::size_t>(c)];
    while (w.size() < kTicks / kWindow)
      w.push_back(clients[static_cast<std::size_t>(c)].next_decision(30.0));
    expect_identical(w, refs[static_cast<std::size_t>(c)].decisions,
                     "sharded client " + std::to_string(c));
  }

  std::uint64_t reconnects = 0;
  for (auto& client : clients) reconnects += client.session().reconnects;
  EXPECT_GT(reconnects, 0u) << "kills never forced a recovery";
  EXPECT_GE(proxy.stats().killed, static_cast<std::uint64_t>(kills));
  // Fleet-wide counters: slot 1 of every round-robin cycle is a posted
  // hand-off, and every post-kill reconnect resumed a parked session.
  const auto& stats = server.shard(0).stats();
  EXPECT_GE(stats.handoffs, 1u);
  EXPECT_GE(stats.sessions_resumed, 1u);
  EXPECT_EQ(stats.sessions_expired, 0u);

  for (auto& client : clients) client.close();
  server.begin_shutdown();
  daemon.join();
}

TEST(NetChaos, BlackholePartitionTimesOutThenHeals) {
  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle()), cfg);
  ChaosProxy proxy(ChaosPlan{}, h.port());

  net::Client client;
  client.set_retry_policy(test_policy());
  client.connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(client
                  .hello({"blackhole", "hpc",
                          static_cast<std::uint16_t>(cfg.num_tiers), 4})
                  .accepted);
  ASSERT_GT(client.stats().value("connections_active"), 0u);

  // A total partition: requests go nowhere, so the caller's timeout
  // fires (a plain runtime_error — resilience does not mask slowness).
  proxy.set_blackhole(true);
  EXPECT_THROW(client.stats(0.3), std::runtime_error);

  // Heal the link: the queued request drains and replies flow again.
  proxy.set_blackhole(false);
  EXPECT_GT(client.stats(10.0).value("connections_active"), 0u);
}

// --- EINTR regression (satellite): signals mid-transfer ------------------

std::atomic<std::uint64_t> g_signals_seen{0};
void count_signal(int) { g_signals_seen.fetch_add(1); }

TEST(NetChaos, SignalsDuringTransferDoNotBreakTheStream) {
  struct sigaction sa{};
  sa.sa_handler = count_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls return EINTR
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  const net::ServerConfig cfg = test_config();
  Harness h(core::MonitorSource::from_bytes(bundle()), cfg);

  constexpr int kTicks = 12000;
  constexpr int kWindow = 4;
  constexpr int kBatch = 100;
  const auto stream = make_stream(cfg.num_tiers, kTicks, 7);
  ReferenceSession ref(h.source, cfg.num_tiers, kWindow, cfg);

  net::Client client;
  client.connect("127.0.0.1", h.port());
  ASSERT_TRUE(client
                  .hello({"signals", "hpc",
                          static_cast<std::uint16_t>(cfg.num_tiers), kWindow})
                  .accepted);

  // Hammer the streaming thread with signals while it transfers.
  const std::uint64_t signals_before = g_signals_seen.load();
  std::atomic<bool> stop{false};
  const pthread_t victim = pthread_self();
  std::thread pest([&] {
    while (!stop.load()) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  // Each batch waits (bounded) for a signal delivered since the previous
  // batch, so the pest is provably active across the whole transfer and
  // the count asserted below follows from the batch count, not from how
  // long the transfer happened to take under load.
  std::uint64_t last_seen = signals_before;
  const auto await_fresh_signal = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (g_signals_seen.load() == last_seen &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    last_seen = g_signals_seen.load();
  };

  std::vector<DecisionFrame> wire;
  for (int start = 0; start < kTicks; start += kBatch) {
    await_fresh_signal();
    SampleBatch batch;
    batch.first_tick = static_cast<std::uint32_t>(start);
    batch.ticks.assign(stream.begin() + start, stream.begin() + start + kBatch);
    client.send_batch(batch);
    for (int i = start; i < start + kBatch; ++i) ref.feed(stream[i]);
    for (const auto& d : client.drain_decisions()) wire.push_back(d);
  }
  while (wire.size() < kTicks / kWindow)
    wire.push_back(client.next_decision(30.0));

  stop = true;
  pest.join();
  sigaction(SIGUSR1, &old, nullptr);

  // At least one fresh signal per batch, by construction of the loop.
  EXPECT_GE(g_signals_seen.load() - signals_before,
            static_cast<std::uint64_t>(kTicks / kBatch))
      << "the pest thread never actually interrupted the transfer";
  expect_identical(wire, ref.decisions, "signal-hammered client");
  EXPECT_EQ(client.session().reconnects, 0u)
      << "EINTR must be retried in place, not treated as an outage";
}

}  // namespace
}  // namespace hpcap

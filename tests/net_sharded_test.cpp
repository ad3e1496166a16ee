// Multi-reactor hpcapd tests (ISSUE 8): the ShardedServer assembly in
// both sharding strategies, plus the cross-shard session machinery.
//
// The invariant under test everywhere: for a fixed connection->reactor
// assignment, per-session decision streams are bit-identical to a
// standalone single-reactor daemon fed the same ticks — sharding changes
// who owns a socket, never what a session computes.
#include <atomic>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "core/monitor_source.h"
#include "core/pipeline.h"
#include "counters/metric_catalog.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "net/sharded.h"
#include "util/rng.h"

namespace hpcap::net {
namespace {

constexpr std::size_t kTiers = 2;
constexpr std::uint16_t kWindow = 4;
constexpr int kTicks = 160;  // 40 windows
constexpr std::size_t kWantWindows = kTicks / kWindow;

std::size_t wire_dim() { return counters::hpc_catalog().size(); }

ml::Dataset wire_training(std::uint64_t seed) {
  const std::size_t dim = wire_dim();
  std::vector<std::string> names;
  for (std::size_t a = 0; a < dim; ++a)
    names.push_back("m" + std::to_string(a));
  ml::Dataset d(names);
  Rng rng(seed);
  for (int i = 0; i < 160; ++i) {
    const int y = i % 2;
    std::vector<double> row;
    for (std::size_t a = 0; a < dim; ++a)
      row.push_back((a % 2 == 0 ? y : 0) + rng.normal(0.0, 0.3));
    d.add(std::move(row), y);
  }
  return d;
}

std::string wire_bundle() {
  core::SynopsisBuilder builder;
  std::vector<core::Synopsis> synopses;
  synopses.push_back(builder.build(
      wire_training(211), {"mix", "app", 0, "hpc", ml::LearnerKind::kTan}));
  synopses.push_back(builder.build(
      wire_training(213), {"mix", "db", 1, "hpc", ml::LearnerKind::kTan}));
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = static_cast<int>(kTiers);
  opts.synopsis_tiers = {0, 1};
  core::CapacityMonitor monitor(std::move(synopses), opts);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    std::vector<std::vector<double>> w(kTiers);
    for (auto& row : w) {
      for (std::size_t a = 0; a < wire_dim(); ++a)
        row.push_back((a % 2 == 0 ? label : 0) + rng.normal(0.0, 0.3));
    }
    monitor.train_instance(w, label, label ? 1 : -1);
  }
  monitor.end_training_run();
  std::ostringstream out;
  core::save_monitor(out, monitor);
  return out.str();
}

std::vector<Tick> make_ticks(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tick> ticks;
  ticks.reserve(kTicks);
  for (int i = 0; i < kTicks; ++i) {
    Tick tick;
    tick.tiers.resize(kTiers);
    for (auto& slot : tick.tiers) {
      slot.present = true;
      slot.values.resize(wire_dim());
      for (std::size_t a = 0; a < wire_dim(); ++a)
        slot.values[a] =
            (a % 2 == 0 ? (i / 200) % 2 : 0) + rng.normal(0.0, 0.3);
    }
    ticks.push_back(std::move(tick));
  }
  return ticks;
}

void stream_range(Client& agent, const std::vector<Tick>& ticks,
                  std::size_t first, std::size_t count) {
  constexpr std::size_t kPerBatch = 32;
  for (std::size_t start = first; start < first + count;
       start += kPerBatch) {
    SampleBatch batch;
    batch.first_tick = static_cast<std::uint32_t>(start);
    const std::size_t end = std::min(first + count, start + kPerBatch);
    batch.ticks.assign(ticks.begin() + static_cast<std::ptrdiff_t>(start),
                       ticks.begin() + static_cast<std::ptrdiff_t>(end));
    agent.send_batch(batch);
  }
}

std::vector<DecisionFrame> collect_decisions(Client& agent,
                                             std::size_t want) {
  std::vector<DecisionFrame> out = agent.drain_decisions();
  while (out.size() < want) out.push_back(agent.next_decision(20.0));
  return out;
}

HelloReply do_hello(Client& agent, const std::string& name) {
  HelloRequest hello;
  hello.agent = name;
  hello.level = "hpc";
  hello.num_tiers = static_cast<int>(kTiers);
  hello.window = kWindow;
  return agent.hello(hello);
}

void expect_same_decisions(const std::vector<DecisionFrame>& got,
                           const std::vector<DecisionFrame>& want,
                           const std::string& who) {
  ASSERT_EQ(got.size(), want.size()) << who;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].window_index, want[i].window_index)
        << who << " window " << i;
    EXPECT_EQ(got[i].state, want[i].state) << who << " window " << i;
    EXPECT_EQ(got[i].confident, want[i].confident)
        << who << " window " << i;
    EXPECT_EQ(got[i].degraded, want[i].degraded) << who << " window " << i;
    EXPECT_EQ(got[i].hc, want[i].hc) << who << " window " << i;
    EXPECT_EQ(got[i].bottleneck_tier, want[i].bottleneck_tier)
        << who << " window " << i;
    EXPECT_EQ(got[i].staleness, want[i].staleness)
        << who << " window " << i;
  }
}

// Standalone single-reactor daemon, the reference every sharded run is
// compared against.
struct Daemon {
  core::MonitorSource source;
  EventLoop loop;
  std::optional<Server> server;
  std::thread thread;
  std::atomic<bool> want_stop{false};

  explicit Daemon(std::string bundle)
      : source(core::MonitorSource::from_bytes(std::move(bundle))) {
    ServerConfig cfg;
    cfg.num_tiers = static_cast<int>(kTiers);
    server.emplace(loop, source, cfg);
    loop.set_wake_handler([this] {
      if (want_stop.exchange(false)) server->begin_shutdown();
    });
    server->start();
    thread = std::thread([this] { loop.run(); });
  }
  ~Daemon() {
    want_stop = true;
    loop.wake();
    thread.join();
  }
};

struct ShardedDaemon {
  core::MonitorSource source;
  ShardedServer server;
  std::thread thread;

  ShardedDaemon(std::string bundle, ServerConfig cfg)
      : source(core::MonitorSource::from_bytes(std::move(bundle))),
        server(source, [&cfg] {
          cfg.num_tiers = static_cast<int>(kTiers);
          return cfg;
        }()) {
    server.start();
    thread = std::thread([this] { server.join(); });
  }
  ~ShardedDaemon() { stop(); }
  void stop() {
    if (!thread.joinable()) return;
    server.begin_shutdown();
    thread.join();
  }
};

std::vector<DecisionFrame> reference_run(const std::string& bundle,
                                         const std::vector<Tick>& ticks) {
  Daemon daemon(bundle);
  Client agent;
  agent.connect("127.0.0.1", daemon.server->port());
  const HelloReply rep = do_hello(agent, "reference");
  EXPECT_TRUE(rep.accepted) << rep.message;
  stream_range(agent, ticks, 0, ticks.size());
  return collect_decisions(agent, kWantWindows);
}

TEST(NetSharded, SingleReactorThroughAssemblyMatchesStandalone) {
  const std::string bundle = wire_bundle();
  const std::vector<Tick> ticks = make_ticks(401);
  const std::vector<DecisionFrame> want = reference_run(bundle, ticks);

  ServerConfig cfg;
  cfg.reactors = 1;
  ShardedDaemon daemon(bundle, cfg);
  EXPECT_EQ(daemon.server.reactors(), 1u);

  Client agent;
  agent.connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(do_hello(agent, "solo").accepted);
  stream_range(agent, ticks, 0, ticks.size());
  expect_same_decisions(collect_decisions(agent, kWantWindows), want,
                        "solo");
}

TEST(NetSharded, TwoReactorHandoffMatchesStandalonePerSession) {
  const std::string bundle = wire_bundle();
  const std::vector<Tick> ticks = make_ticks(401);
  const std::vector<DecisionFrame> want = reference_run(bundle, ticks);

  ServerConfig cfg;
  cfg.reactors = 2;  // hand-off placement: deterministic round-robin
  ShardedDaemon daemon(bundle, cfg);
  EXPECT_EQ(daemon.server.reactors(), 2u);

  // Round-robin assignment: connection 0 stays on the leader, connection
  // 1 is handed off to shard 1. Both sessions see the same ticks and
  // must emit the reference stream independently.
  Client a;
  a.connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(do_hello(a, "agent-0").accepted);
  Client b;
  b.connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(do_hello(b, "agent-1").accepted);

  stream_range(a, ticks, 0, ticks.size());
  stream_range(b, ticks, 0, ticks.size());
  expect_same_decisions(collect_decisions(a, kWantWindows), want, "a");
  expect_same_decisions(collect_decisions(b, kWantWindows), want, "b");

  EXPECT_GE(daemon.server.shard(0).stats().handoffs, 1u);

  // The daemon reports its reactor count over the wire.
  Client probe;
  probe.connect("127.0.0.1", daemon.server.port());
  EXPECT_EQ(probe.stats().value("reactors"), 2u);
}

// Default placement under concurrency: 4 agents connect at once, so the
// hand-off round-robin deals them across both reactors in whatever
// order their connects land, and every session still emits the
// reference stream.
TEST(NetSharded, TwoReactorDefaultPlacementServesConcurrentAgents) {
  const std::string bundle = wire_bundle();
  const std::vector<Tick> ticks = make_ticks(401);
  const std::vector<DecisionFrame> want = reference_run(bundle, ticks);

  ServerConfig cfg;
  cfg.reactors = 2;
  ShardedDaemon daemon(bundle, cfg);

  constexpr std::size_t kAgents = 4;
  std::vector<std::vector<DecisionFrame>> got(kAgents);
  std::vector<std::string> errors(kAgents);
  {
    std::vector<std::thread> agents;
    for (std::size_t i = 0; i < kAgents; ++i) {
      agents.emplace_back([&, i] {
        try {
          Client agent;
          agent.connect("127.0.0.1", daemon.server.port());
          const HelloReply rep =
              do_hello(agent, "agent-" + std::to_string(i));
          if (!rep.accepted) {
            errors[i] = "hello rejected: " + rep.message;
            return;
          }
          stream_range(agent, ticks, 0, ticks.size());
          got[i] = collect_decisions(agent, kWantWindows);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    for (auto& t : agents) t.join();
  }
  for (std::size_t i = 0; i < kAgents; ++i) {
    ASSERT_TRUE(errors[i].empty()) << "agent " << i << ": " << errors[i];
    expect_same_decisions(got[i], want, "agent-" + std::to_string(i));
  }
  EXPECT_GE(daemon.server.shard(0).stats().connections_accepted,
            kAgents);
  // Round-robin: the leader keeps every other connection.
  EXPECT_EQ(daemon.server.shard(0).stats().handoffs, kAgents / 2);
}

TEST(NetSharded, CrossShardResumeEvictsTheLiveOwner) {
  const std::string bundle = wire_bundle();
  const std::vector<Tick> ticks = make_ticks(401);
  const std::vector<DecisionFrame> want = reference_run(bundle, ticks);

  ServerConfig cfg;
  cfg.reactors = 2;
  ShardedDaemon daemon(bundle, cfg);

  // Session starts on shard 0 (round-robin slot 0) and streams half.
  Client a;
  a.connect("127.0.0.1", daemon.server.port());
  const HelloReply ha = do_hello(a, "mover");
  ASSERT_TRUE(ha.accepted) << ha.message;
  ASSERT_NE(ha.session_token, 0u);
  stream_range(a, ticks, 0, kTicks / 2);
  const std::vector<DecisionFrame> first =
      collect_decisions(a, kWantWindows / 2);

  // A second socket lands on shard 1 and resumes the token while the
  // first socket is still open: shard 1 must evict the live owner on
  // shard 0 (mailbox round-trip) before it can attach the session.
  Client b;
  b.connect("127.0.0.1", daemon.server.port());
  HelloRequest resume;
  resume.agent = "mover";
  resume.level = "hpc";
  resume.num_tiers = static_cast<int>(kTiers);
  resume.window = kWindow;
  resume.resume_token = ha.session_token;
  resume.resume_from_window = static_cast<std::uint32_t>(kWantWindows / 2);
  const HelloReply hb = b.hello(resume);
  ASSERT_TRUE(hb.accepted) << hb.message;
  EXPECT_TRUE(hb.resumed);
  EXPECT_EQ(hb.session_token, ha.session_token);

  // The resumed session continues the stream where the first half ended;
  // the client continues the sequence space from last_applied_seq.
  stream_range(b, ticks, kTicks / 2, kTicks - kTicks / 2);
  std::vector<DecisionFrame> all = first;
  for (DecisionFrame& d :
       collect_decisions(b, kWantWindows - kWantWindows / 2))
    all.push_back(d);
  expect_same_decisions(all, want, "mover");

  const ServerStats& stats = daemon.server.shard(0).stats();
  EXPECT_GE(stats.cross_shard_resumes, 1u);
  EXPECT_EQ(stats.sessions_resumed, 1u);
}

}  // namespace
}  // namespace hpcap::net

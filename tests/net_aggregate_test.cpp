// Hierarchical aggregation tests (ISSUE 8): the FleetAggregator merge,
// the AGGREGATE wire sessions (SUBSCRIBE / VOTES / resume), and the
// headline equivalence — a 2-level leaf->parent tree, fed the same tick
// stream split across two leaves, produces a fleet decision stream
// bit-identical to a flat single daemon seeing every tier.
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
#include "net/aggregate.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "util/rng.h"

namespace hpcap::net {
namespace {

constexpr std::size_t kTiers = 2;
constexpr std::uint16_t kWindow = 4;

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

// A 2-tier, 2-synopsis monitor at the wire's "hpc" dimensionality,
// serialized to a bundle every daemon in a test shares.
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

// In-process hpcapd on its own loop thread (net_loopback_test idiom).
struct Daemon {
  core::MonitorSource source;
  EventLoop loop;
  std::optional<Server> server;
  std::thread thread;
  std::atomic<bool> want_stop{false};

  explicit Daemon(std::string bundle, ServerConfig cfg = {},
                  Uplink* uplink = nullptr)
      : source(core::MonitorSource::from_bytes(std::move(bundle))) {
    cfg.num_tiers = static_cast<int>(kTiers);
    server.emplace(loop, source, cfg);
    if (uplink != nullptr) server->set_uplink(uplink);
    loop.set_wake_handler([this] {
      if (want_stop.exchange(false)) server->begin_shutdown();
    });
    server->start();
    thread = std::thread([this] { loop.run(); });
  }
  ~Daemon() { stop(); }
  void stop() {
    if (!thread.joinable()) return;
    want_stop = true;
    loop.wake();
    thread.join();
  }
};

// One deterministic tick stream; `tier_present[t]` masks which tiers a
// given agent reports (absent tiers stream present=false, so the leaf's
// synopses for them abstain).
std::vector<Tick> make_ticks(int count, std::uint64_t seed,
                             const std::vector<bool>& tier_present) {
  Rng rng(seed);
  std::vector<Tick> ticks;
  ticks.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Tick tick;
    tick.tiers.resize(kTiers);
    for (std::size_t t = 0; t < kTiers; ++t) {
      auto& slot = tick.tiers[t];
      // Every agent draws the identical values (same seed, same draw
      // order) so a leaf's view of its own tier matches the flat run's.
      std::vector<double> values(wire_dim());
      for (std::size_t a = 0; a < wire_dim(); ++a)
        values[a] =
            (a % 2 == 0 ? (i / 200) % 2 : 0) + rng.normal(0.0, 0.3);
      slot.present = tier_present[t];
      if (slot.present) slot.values = std::move(values);
    }
    ticks.push_back(std::move(tick));
  }
  return ticks;
}

void stream_ticks(Client& agent, const std::vector<Tick>& ticks,
                  int per_batch = 32) {
  for (std::size_t start = 0; start < ticks.size();
       start += static_cast<std::size_t>(per_batch)) {
    SampleBatch batch;
    batch.first_tick = static_cast<std::uint32_t>(start);
    const std::size_t end =
        std::min(ticks.size(), start + static_cast<std::size_t>(per_batch));
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
                           const std::vector<DecisionFrame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].window_index, want[i].window_index) << "window " << i;
    EXPECT_EQ(got[i].state, want[i].state) << "window " << i;
    EXPECT_EQ(got[i].confident, want[i].confident) << "window " << i;
    EXPECT_EQ(got[i].degraded, want[i].degraded) << "window " << i;
    EXPECT_EQ(got[i].hc, want[i].hc) << "window " << i;
    EXPECT_EQ(got[i].bottleneck_tier, want[i].bottleneck_tier)
        << "window " << i;
    EXPECT_EQ(got[i].staleness, want[i].staleness) << "window " << i;
  }
}

// --- headline: 2-level tree == flat single daemon ------------------------

TEST(NetAggregate, TwoLevelTreeMatchesFlatSingleDaemon) {
  const std::string bundle = wire_bundle();
  constexpr int kTicks = 160;  // 40 windows at kWindow=4
  constexpr std::size_t kWantWindows = kTicks / kWindow;

  // Flat reference: one daemon, one agent streaming every tier.
  std::vector<DecisionFrame> flat;
  {
    Daemon daemon(bundle);
    Client agent;
    agent.connect("127.0.0.1", daemon.server->port());
    ASSERT_TRUE(do_hello(agent, "flat").accepted);
    stream_ticks(agent, make_ticks(kTicks, 401, {true, true}));
    flat = collect_decisions(agent, kWantWindows);
  }
  ASSERT_EQ(flat.size(), kWantWindows);

  // Tree: parent + two leaves, each leaf owning one tier's synopsis.
  Daemon parent(bundle);
  Uplink::Options ua;
  ua.port = parent.server->port();
  ua.leaf = "leaf-app";
  ua.coverage = {0};
  Uplink uplink_a(ua);
  Uplink::Options ub;
  ub.port = parent.server->port();
  ub.leaf = "leaf-db";
  ub.coverage = {1};
  Uplink uplink_b(ub);
  Daemon leaf_a(bundle, {}, &uplink_a);
  Daemon leaf_b(bundle, {}, &uplink_b);
  uplink_a.start();
  uplink_b.start();

  // Both subscriptions must be live before any window decides: a late
  // joiner is refused (tested below), so the test orders it explicitly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!(uplink_a.stats().subscribed && uplink_b.stats().subscribed)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "uplinks never subscribed";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  Client agent_a;
  agent_a.connect("127.0.0.1", leaf_a.server->port());
  ASSERT_TRUE(do_hello(agent_a, "agent-app").accepted);
  Client agent_b;
  agent_b.connect("127.0.0.1", leaf_b.server->port());
  ASSERT_TRUE(do_hello(agent_b, "agent-db").accepted);

  // The same ticks as the flat run, each leaf seeing only its own tier.
  stream_ticks(agent_a, make_ticks(kTicks, 401, {true, false}));
  stream_ticks(agent_b, make_ticks(kTicks, 401, {false, true}));

  // Leaf decisions exist (degraded — one tier dark) but are not what the
  // tree is for; drain them so the write queues stay clear.
  (void)collect_decisions(agent_a, kWantWindows);
  (void)collect_decisions(agent_b, kWantWindows);

  // Fleet decisions stream back to every leaf; read them off leaf A.
  std::vector<DecisionFrame> fleet;
  while (fleet.size() < kWantWindows) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "fleet produced " << fleet.size() << " of " << kWantWindows;
    for (DecisionFrame& d : uplink_a.drain_fleet_decisions())
      fleet.push_back(d);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  expect_same_decisions(fleet, flat);
  EXPECT_EQ(parent.server->stats().agg_subscribes, 2u);
  EXPECT_GE(parent.server->stats().agg_windows_in, 2 * kWantWindows);
  EXPECT_EQ(parent.server->stats().fleet_decisions, kWantWindows);

  uplink_a.stop();
  uplink_b.stop();
}

// --- SUBSCRIBE admission --------------------------------------------------

TEST(NetAggregate, SubscribeRejectsOverlapOutOfRangeEmptyAndLateJoin) {
  Daemon daemon(wire_bundle());

  Client a;
  a.connect("127.0.0.1", daemon.server->port());
  AggregateSubscribe req;
  req.leaf = "a";
  req.synopses = {0};
  const AggregateSubscribeReply ra = a.aggregate_subscribe(req);
  ASSERT_TRUE(ra.accepted) << ra.message;
  EXPECT_NE(ra.session_token, 0u);
  EXPECT_EQ(ra.num_synopses, 2u);
  EXPECT_FALSE(ra.resumed);

  {
    Client overlap;
    overlap.connect("127.0.0.1", daemon.server->port());
    req.leaf = "overlap";
    req.synopses = {0};
    const auto rep = overlap.aggregate_subscribe(req);
    EXPECT_FALSE(rep.accepted);
    EXPECT_NE(rep.message.find("already covered"), std::string::npos)
        << rep.message;
  }
  {
    Client range;
    range.connect("127.0.0.1", daemon.server->port());
    req.leaf = "range";
    req.synopses = {7};
    const auto rep = range.aggregate_subscribe(req);
    EXPECT_FALSE(rep.accepted);
    EXPECT_NE(rep.message.find("outside the fleet"), std::string::npos)
        << rep.message;
  }
  {
    Client empty;
    empty.connect("127.0.0.1", daemon.server->port());
    req.leaf = "empty";
    req.synopses = {};
    const auto rep = empty.aggregate_subscribe(req);
    EXPECT_FALSE(rep.accepted);
    EXPECT_NE(rep.message.find("covers no synopses"), std::string::npos)
        << rep.message;
  }

  // First decision starts the fleet stream; joins after that are refused
  // (a late leaf cannot retroactively vote on consumed history).
  AggregateBatch batch;
  AggregateWindow w;
  w.window_index = 0;
  w.votes = {1};
  w.valid = {1};
  batch.windows.push_back(w);
  a.send_aggregate(batch);
  const DecisionFrame fleet0 = a.next_decision(20.0);
  EXPECT_EQ(fleet0.window_index, 0u);

  {
    Client late;
    late.connect("127.0.0.1", daemon.server->port());
    req.leaf = "late";
    req.synopses = {1};
    const auto rep = late.aggregate_subscribe(req);
    EXPECT_FALSE(rep.accepted);
    EXPECT_NE(rep.message.find("already started"), std::string::npos)
        << rep.message;
  }
}

TEST(NetAggregate, SubscribeHonorsFaninBound) {
  ServerConfig cfg;
  cfg.agg_fanin = 1;
  Daemon daemon(wire_bundle(), cfg);

  Client a;
  a.connect("127.0.0.1", daemon.server->port());
  AggregateSubscribe req;
  req.leaf = "a";
  req.synopses = {0};
  ASSERT_TRUE(a.aggregate_subscribe(req).accepted);

  Client b;
  b.connect("127.0.0.1", daemon.server->port());
  req.leaf = "b";
  req.synopses = {1};
  const auto rep = b.aggregate_subscribe(req);
  EXPECT_FALSE(rep.accepted);
  EXPECT_NE(rep.message.find("fan-in exhausted"), std::string::npos)
      << rep.message;
}

// --- VOTES stream discipline ---------------------------------------------

TEST(NetAggregate, VotesWidthMismatchDropsThePeer) {
  Daemon daemon(wire_bundle());
  Client a;
  a.connect("127.0.0.1", daemon.server->port());
  AggregateSubscribe req;
  req.leaf = "a";
  req.synopses = {0};
  ASSERT_TRUE(a.aggregate_subscribe(req).accepted);

  AggregateBatch batch;
  AggregateWindow w;
  w.window_index = 0;
  w.votes = {1, 0};  // two cells against a one-synopsis subscription
  w.valid = {1, 1};
  batch.windows.push_back(w);
  a.send_aggregate(batch);
  // The parent refuses the merge as a protocol violation and drops the
  // connection; the next blocking read observes it.
  EXPECT_THROW((void)a.next_decision(20.0), TransportError);
  EXPECT_GE(daemon.server->stats().malformed_frames, 1u);
}

TEST(NetAggregate, AggregateSessionResumesAndReplaysFleetDecisions) {
  Daemon daemon(wire_bundle());
  constexpr std::uint32_t kWindows = 10;

  AggregateSubscribe req;
  req.leaf = "solo";
  req.synopses = {0, 1};
  std::uint64_t token = 0;
  std::vector<DecisionFrame> first;
  {
    Client a;
    a.connect("127.0.0.1", daemon.server->port());
    const auto rep = a.aggregate_subscribe(req);
    ASSERT_TRUE(rep.accepted) << rep.message;
    token = rep.session_token;

    AggregateBatch batch;
    for (std::uint32_t i = 0; i < kWindows; ++i) {
      AggregateWindow w;
      w.window_index = i;
      w.votes = {static_cast<int>(i % 2), static_cast<int>(i % 2)};
      w.valid = {1, 1};
      batch.windows.push_back(std::move(w));
    }
    a.send_aggregate(batch);
    first = collect_decisions(a, kWindows);
    // The socket dies here with the session's replay ring intact.
  }

  // Give the daemon a beat to notice the EOF and park the session.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Client b;
  b.connect("127.0.0.1", daemon.server->port());
  AggregateSubscribe resume = req;
  resume.resume_token = token;
  resume.resume_from_window = 4;
  const auto rep = b.aggregate_subscribe(resume);
  ASSERT_TRUE(rep.accepted) << rep.message;
  EXPECT_TRUE(rep.resumed);
  EXPECT_EQ(rep.session_token, token);
  EXPECT_EQ(rep.last_applied_seq, 1u);

  // Windows 4..9 replay in order, bit-identical to the first delivery.
  const std::vector<DecisionFrame> replayed =
      collect_decisions(b, kWindows - 4);
  const std::vector<DecisionFrame> tail(first.begin() + 4, first.end());
  expect_same_decisions(replayed, tail);

  // The resumed session keeps streaming: a new batch (the parent deduped
  // seq 1, so this stamps seq 2) decides fresh windows.
  AggregateBatch more;
  AggregateWindow w;
  w.window_index = kWindows;
  w.votes = {1, 1};
  w.valid = {1, 1};
  more.windows.push_back(w);
  b.send_aggregate(more);
  const DecisionFrame next = b.next_decision(20.0);
  EXPECT_EQ(next.window_index, kWindows);
  EXPECT_EQ(daemon.server->stats().sessions_resumed, 1u);
}

// --- FleetAggregator unit behavior ---------------------------------------

TEST(NetAggregate, AggregatorDecidesDegradedWhenALeafRetires) {
  core::MonitorSource source = core::MonitorSource::from_bytes(wire_bundle());
  FleetAggregator::Options opts;
  opts.fanin = 4;
  FleetAggregator agg(source, opts);
  agg.subscribe(1, {0});
  agg.subscribe(2, {1});

  AggregateWindow w;
  w.window_index = 0;
  w.votes = {1};
  w.valid = {1};
  // Leaf 1 alone cannot decide: the window waits for leaf 2.
  EXPECT_TRUE(agg.apply(1, std::span(&w, 1)).empty());
  EXPECT_EQ(agg.pending_windows(), 1u);

  // Retiring leaf 2 decides the window with its bits invalid.
  const auto decided = agg.unsubscribe(2);
  ASSERT_EQ(decided.size(), 1u);
  EXPECT_EQ(decided[0].window_index, 0u);
  EXPECT_EQ(agg.next_window(), 1u);
  EXPECT_EQ(agg.pending_windows(), 0u);

  // Replayed windows below the frontier are ignored, not re-decided.
  EXPECT_TRUE(agg.apply(1, std::span(&w, 1)).empty());
  EXPECT_EQ(agg.next_window(), 1u);
}

}  // namespace
}  // namespace hpcap::net

// Bench-smoke regression guard (ctest -L bench-smoke).
//
// The seed's parallel synopsis-bank build was *slower* than serial
// (BENCH_parallel.json recorded a 0.83x "speedup") because per-index pool
// dispatch outweighed the work on small tasks. This guard trains a
// miniature bank serially and with 2 threads and fails if the parallel
// build costs more than 1.1x the serial wall time — catching any future
// re-introduction of per-item dispatch overhead, regardless of how many
// cores the machine running the suite actually has.
// Two further guards pin the PR 6 batched hot path: observe_many at
// batch 16 must beat the scalar observe loop per sample (the whole point
// of amortizing the cut search and table walks), and the loopback wire
// must move a batched tick stream at least 2x faster than one tick per
// SAMPLE_BATCH frame (the whole point of the scatter-gather flush).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <optional>
#include <span>
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
#include "util/parallel.h"
#include "util/rng.h"

namespace hpcap::core {
namespace {

ml::Dataset mini_training(std::uint64_t seed) {
  std::vector<std::string> names;
  for (int a = 0; a < 6; ++a) names.push_back("m" + std::to_string(a));
  ml::Dataset d(names);
  Rng rng(seed);
  for (int i = 0; i < 240; ++i) {
    const int y = i % 2;
    std::vector<double> row;
    for (int a = 0; a < 6; ++a)
      row.push_back((a % 2 == 0 ? y : 0) + rng.normal(0.0, 0.3));
    d.add(std::move(row), y);
  }
  return d;
}

std::vector<SynopsisTask> mini_tasks() {
  std::vector<SynopsisTask> tasks;
  const char* tiers[] = {"web", "app", "db"};
  for (int t = 0; t < 3; ++t)
    for (int w = 0; w < 2; ++w) {
      SynopsisTask task{mini_training(100 + 10 * t + w),
                        {"mix" + std::to_string(w), tiers[t], t, "hpc",
                         ml::LearnerKind::kTan}};
      tasks.push_back(std::move(task));
    }
  return tasks;
}

double build_ms(std::size_t threads) {
  util::set_max_threads(threads);
  const auto t0 = std::chrono::steady_clock::now();
  const auto bank = build_synopsis_bank(SynopsisBuilder(), mini_tasks());
  const auto t1 = std::chrono::steady_clock::now();
  util::set_max_threads(0);
  EXPECT_EQ(bank.size(), 6u);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

TEST(BenchSmoke, ParallelBankBuildDoesNotRegressPastSerial) {
  // Best of 3 per mode smooths scheduler noise; the guard is a ratio, so
  // it holds on any machine — including single-CPU containers, where a
  // well-granulated parallel build should cost the same as serial, not
  // more.
  double serial = 1e300, parallel = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    serial = std::min(serial, build_ms(1));
    parallel = std::min(parallel, build_ms(2));
  }
  RecordProperty("serial_ms", std::to_string(serial));
  RecordProperty("parallel2_ms", std::to_string(parallel));
  // 1 ms of additive slack keeps sub-millisecond jitter from mattering if
  // the miniature build ever becomes very fast.
  EXPECT_LE(parallel, serial * 1.1 + 1.0)
      << "2-thread bank build took " << parallel << " ms vs " << serial
      << " ms serial — parallel dispatch overhead regressed";
}

// --- batched observe guard -------------------------------------------------

constexpr std::size_t kTiers = 2;
constexpr std::size_t kDim = 6;

// Two identically-built and identically-trained 2-tier monitors, one per
// path under test (construction is deterministic).
CapacityMonitor mini_monitor() {
  SynopsisBuilder builder;
  std::vector<Synopsis> synopses;
  synopses.push_back(builder.build(mini_training(201),
                                   {"mix", "app", 0, "hpc",
                                    ml::LearnerKind::kTan}));
  synopses.push_back(builder.build(mini_training(203),
                                   {"mix", "db", 1, "hpc",
                                    ml::LearnerKind::kTan}));
  CoordinatedPredictor::Options opts;
  opts.num_tiers = static_cast<int>(kTiers);
  opts.synopsis_tiers = {0, 1};
  CapacityMonitor monitor(std::move(synopses), opts);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    std::vector<std::vector<double>> w(kTiers);
    for (auto& row : w) {
      for (std::size_t a = 0; a < kDim; ++a)
        row.push_back((a % 2 == 0 ? label : 0) + rng.normal(0.0, 0.3));
    }
    monitor.train_instance(w, label, label ? 1 : -1);
  }
  monitor.end_training_run();
  return monitor;
}

// Row-major window block (window w tier t at rows[(w*kTiers + t)*kDim]).
std::vector<double> stream_rows(std::size_t windows, std::uint64_t seed) {
  std::vector<double> rows;
  rows.reserve(windows * kTiers * kDim);
  Rng rng(seed);
  for (std::size_t w = 0; w < windows; ++w) {
    const double level = static_cast<double>(w % 2);
    for (std::size_t t = 0; t < kTiers; ++t)
      for (std::size_t a = 0; a < kDim; ++a)
        rows.push_back((a % 2 == 0 ? level : 0.0) + rng.normal(0.0, 0.3));
  }
  return rows;
}

TEST(BenchSmoke, BatchedObserveBeatsScalarPerSample) {
  // The batched observe path exists to amortize per-window costs; if a
  // batch of 16 ever fails to beat the scalar loop by at least 10% per
  // sample, the optimization has silently rotted. Both monitors see the
  // identical window sequence, so predictor state evolves identically
  // and the comparison times nothing but the dispatch path.
  constexpr std::size_t kWindows = 4096;
  constexpr std::size_t kBatch16 = 16;
  const std::vector<double> rows = stream_rows(kWindows, 301);

  CapacityMonitor scalar_monitor = mini_monitor();
  CapacityMonitor batched_monitor = mini_monitor();

  std::vector<std::vector<double>> window(kTiers,
                                          std::vector<double>(kDim));
  std::vector<CoordinatedPredictor::Decision> out(kBatch16);

  const auto scalar_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t w = 0; w < kWindows; ++w) {
      for (std::size_t t = 0; t < kTiers; ++t) {
        const double* r = rows.data() + (w * kTiers + t) * kDim;
        std::copy(r, r + kDim, window[t].begin());
      }
      (void)scalar_monitor.observe(window);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  const auto batched_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t w = 0; w < kWindows; w += kBatch16) {
      const WindowBlock block{rows.data() + w * kTiers * kDim, kBatch16,
                              kTiers, kDim};
      batched_monitor.observe_many(block,
                                   std::span(out.data(), kBatch16));
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  // Warm both paths once (thread_local scratch, lazy tables), then take
  // the best of 3 timed rounds per path to smooth scheduler noise.
  (void)scalar_ms();
  (void)batched_ms();
  double scalar = 1e300, batched = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    scalar = std::min(scalar, scalar_ms());
    batched = std::min(batched, batched_ms());
  }
  const double per_sample = 1e6 / static_cast<double>(kWindows * kTiers);
  RecordProperty("scalar_ns_per_sample", std::to_string(scalar * per_sample));
  RecordProperty("batched16_ns_per_sample",
                 std::to_string(batched * per_sample));
  // 0.1 ms of additive slack keeps timer granularity from mattering if
  // the miniature stream ever becomes very fast end to end.
  EXPECT_LE(batched, scalar * 0.9 + 0.1)
      << "observe_many at batch 16 took " << batched * per_sample
      << " ns/sample vs " << scalar * per_sample
      << " ns/sample scalar — batched amortization regressed";
}

// --- batched wire guard ----------------------------------------------------

// The wire's "hpc" metric level pins slot width to the counter catalog,
// so the daemon-side model trains at that dimensionality.
std::size_t wire_dim() { return counters::hpc_catalog().size(); }

ml::Dataset wire_training(std::uint64_t seed) {
  const std::size_t dim = wire_dim();
  std::vector<std::string> names;
  for (std::size_t a = 0; a < dim; ++a) names.push_back("m" + std::to_string(a));
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

CapacityMonitor wire_monitor() {
  SynopsisBuilder builder;
  std::vector<Synopsis> synopses;
  synopses.push_back(builder.build(wire_training(211),
                                   {"mix", "app", 0, "hpc",
                                    ml::LearnerKind::kTan}));
  synopses.push_back(builder.build(wire_training(213),
                                   {"mix", "db", 1, "hpc",
                                    ml::LearnerKind::kTan}));
  CoordinatedPredictor::Options opts;
  opts.num_tiers = static_cast<int>(kTiers);
  opts.synopsis_tiers = {0, 1};
  CapacityMonitor monitor(std::move(synopses), opts);
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
  return monitor;
}

// In-process hpcapd (same shape as bench_net_loopback): event loop on its
// own thread, shutdown via the loop's wake handler.
struct Daemon {
  MonitorSource source;
  net::EventLoop loop;
  std::optional<net::Server> server;
  std::thread thread;
  std::atomic<bool> want_stop{false};

  explicit Daemon(std::string bundle)
      : source(MonitorSource::from_bytes(std::move(bundle))) {
    net::ServerConfig cfg;
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

TEST(BenchSmoke, LoopbackBatchedBeatsUnbatchedTicks) {
  // The scatter-gather wire path exists to amortize syscalls and frame
  // overhead; streaming the same ticks 64 per SAMPLE_BATCH frame must be
  // at least 2x faster end to end than one tick per frame. The real gap
  // is far larger (one sendmsg per 64 ticks vs one per tick), so 2x
  // holds even on a single-CPU container where client and daemon share
  // a core.
  constexpr int kTicks = 4096;
  constexpr std::uint16_t kWindow = 4;

  std::ostringstream bundle;
  {
    CapacityMonitor monitor = wire_monitor();
    save_monitor(bundle, monitor);
  }
  Daemon daemon(bundle.str());

  net::Client agent;
  agent.connect("127.0.0.1", daemon.server->port());
  net::HelloRequest hello;
  hello.agent = "bench-smoke";
  hello.level = "hpc";
  hello.num_tiers = static_cast<int>(kTiers);
  hello.window = kWindow;
  ASSERT_TRUE(agent.hello(hello).accepted);

  // One pre-built tick stream, re-sent by both modes; batch assembly
  // happens outside the timed region so the guard times only the wire.
  Rng rng(401);
  std::vector<net::Tick> stream;
  stream.reserve(kTicks);
  for (int i = 0; i < kTicks; ++i) {
    net::Tick tick;
    tick.tiers.resize(kTiers);
    for (auto& slot : tick.tiers) {
      slot.present = true;
      slot.values.resize(wire_dim());
      for (std::size_t a = 0; a < wire_dim(); ++a)
        slot.values[a] =
            (a % 2 == 0 ? (i / 200) % 2 : 0) + rng.normal(0.0, 0.3);
    }
    stream.push_back(std::move(tick));
  }
  const auto frames_of = [&](int per_frame) {
    std::vector<net::SampleBatch> frames;
    for (int start = 0; start < kTicks; start += per_frame) {
      net::SampleBatch batch;
      batch.first_tick = static_cast<std::uint32_t>(start);
      const int end = std::min(start + per_frame, kTicks);
      batch.ticks.assign(stream.begin() + start, stream.begin() + end);
      frames.push_back(std::move(batch));
    }
    return frames;
  };
  const std::vector<net::SampleBatch> unbatched_frames = frames_of(1);
  const std::vector<net::SampleBatch> batched_frames = frames_of(64);

  constexpr std::size_t kWantDecisions = kTicks / kWindow;
  const auto run_ms = [&](const std::vector<net::SampleBatch>& frames) {
    std::size_t decisions = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& frame : frames) {
      // Fresh copy per send: the v2 client stamps batch_seq into the
      // frame, and re-sending a stamped sequence would be deduped.
      net::SampleBatch outgoing = frame;
      agent.send_batch(outgoing);
      decisions += agent.drain_decisions().size();
    }
    while (decisions < kWantDecisions) {
      (void)agent.next_decision();
      ++decisions;
    }
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_EQ(decisions, kWantDecisions);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  double unbatched = 1e300, batched = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    unbatched = std::min(unbatched, run_ms(unbatched_frames));
    batched = std::min(batched, run_ms(batched_frames));
  }
  RecordProperty("unbatched_ms", std::to_string(unbatched));
  RecordProperty("batched64_ms", std::to_string(batched));
  // 1 ms of additive slack covers timer granularity on a fast loopback.
  EXPECT_LE(batched * 2.0, unbatched + 1.0)
      << "64-tick frames moved " << kTicks << " ticks in " << batched
      << " ms vs " << unbatched
      << " ms for 1-tick frames — wire batching advantage regressed";
}

// --- multi-reactor scaling trap (ISSUE 8) ----------------------------------

// Wall time for `agents` concurrent sessions each streaming `ticks`
// through a daemon running `reactors` event loops. The clock starts once
// every agent thread exists and has completed its HELLO, so it times
// reactor work, not thread start-up or handshake wake-up latency.
double sharded_run_ms(const std::string& bundle, std::size_t reactors,
                      int agents, int ticks) {
  constexpr std::uint16_t kWindow = 4;
  MonitorSource source = MonitorSource::from_bytes(bundle);
  net::ServerConfig cfg;
  cfg.num_tiers = static_cast<int>(kTiers);
  cfg.reactors = reactors;
  net::ShardedServer server(source, cfg);
  server.start();
  std::thread daemon([&server] { server.join(); });

  Rng rng(577);
  std::vector<net::Tick> stream;
  stream.reserve(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i) {
    net::Tick tick;
    tick.tiers.resize(kTiers);
    for (auto& slot : tick.tiers) {
      slot.present = true;
      slot.values.resize(wire_dim());
      for (std::size_t a = 0; a < wire_dim(); ++a)
        slot.values[a] =
            (a % 2 == 0 ? (i / 200) % 2 : 0) + rng.normal(0.0, 0.3);
    }
    stream.push_back(std::move(tick));
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::latch ready(agents);  // every agent has HELLOed (or failed to)
  std::latch go(1);          // the clock is running
  for (int c = 0; c < agents; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client agent;
        bool accepted = false;
        try {
          agent.connect("127.0.0.1", server.port());
          net::HelloRequest hello;
          hello.agent = "scale-" + std::to_string(c);
          hello.level = "hpc";
          hello.num_tiers = static_cast<int>(kTiers);
          hello.window = kWindow;
          accepted = agent.hello(hello).accepted;
        } catch (const std::exception&) {
        }
        ready.count_down();
        go.wait();
        if (!accepted) {
          ++failures;
          return;
        }
        std::size_t decisions = 0;
        for (int start = 0; start < ticks; start += 64) {
          net::SampleBatch batch;
          batch.first_tick = static_cast<std::uint32_t>(start);
          const int end = std::min(start + 64, ticks);
          batch.ticks.assign(stream.begin() + start, stream.begin() + end);
          agent.send_batch(batch);
          decisions += agent.drain_decisions().size();
        }
        const std::size_t want =
            static_cast<std::size_t>(ticks) / kWindow;
        while (decisions < want) {
          (void)agent.next_decision(30.0);
          ++decisions;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  ready.wait();
  const auto t0 = std::chrono::steady_clock::now();
  go.count_down();
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(failures.load(), 0);

  server.begin_shutdown();
  daemon.join();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

TEST(BenchSmoke, TwoReactorLoopbackScalesPastSingleReactor) {
  // Two reactors exist to put two cores on the accept load; on a host
  // without two hardware threads the second loop can only time-slice the
  // first one's core, so the ratio is meaningless there — skip loudly
  // rather than flake (the BENCH_net.json host stamp records the same).
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2)
    GTEST_SKIP() << "host has " << hw
                 << " hardware thread(s); the 2-reactor >= 1.5x scaling "
                    "trap needs at least 2";

  std::ostringstream bundle;
  {
    CapacityMonitor monitor = wire_monitor();
    save_monitor(bundle, monitor);
  }
  // 2 agents (with 2 reactors they fill a 4-thread host, no more) and
  // 16k ticks each, so a leg is long against wake-up jitter. One
  // unmeasured run warms the host first — a first start after idle runs
  // both legs at about half speed — then the legs alternate, best of 9.
  constexpr int kAgents = 2;
  constexpr int kTicksPerAgent = 16384;
  (void)sharded_run_ms(bundle.str(), 2, kAgents, kTicksPerAgent);
  double single = 1e300, dual = 1e300;
  for (int rep = 0; rep < 9; ++rep) {
    single = std::min(single,
                      sharded_run_ms(bundle.str(), 1, kAgents, kTicksPerAgent));
    dual = std::min(dual,
                    sharded_run_ms(bundle.str(), 2, kAgents, kTicksPerAgent));
  }
  RecordProperty("single_reactor_ms", std::to_string(single));
  RecordProperty("dual_reactor_ms", std::to_string(dual));
  // 1 ms of additive slack covers timer granularity on a fast loopback.
  EXPECT_LE(dual * 1.5, single + 1.0)
      << kAgents << " agents moved in " << dual
      << " ms on 2 reactors vs " << single
      << " ms on 1 — multi-reactor scaling regressed";
}

}  // namespace
}  // namespace hpcap::core

// Fleet-tree wire bench: end-to-end windows/sec of a 2-level
// aggregation tree (parent + `fanin` leaves, each leaf streaming its slice
// of the fleet GPV over loopback) for fanin 1 and 2, with the fleet
// decision stream checked field-for-field against an in-process
// reference that drives the identical aggregation + validation pipeline
// through the *scalar* observe_masked loop (identical_output per config
// in the JSON). The single-daemon wire path (throughput, decision latency,
// 1 vs 2 reactors) is measured by perfbench's wire workloads.
//
// Usage: bench_net_loopback [--json PATH] [--ticks N]
//   --json PATH   output record (default: BENCH_net.json)
//   --ticks N     sampling ticks per leaf agent (default: 60000)
// Exits 1 unless every config is bit-identical to the reference.
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
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
#include "net/aggregate.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "util/rng.h"
#include "util/table.h"

using namespace hpcap;
using Clock = std::chrono::steady_clock;

namespace {

std::size_t catalog_dim() { return counters::hpc_catalog().size(); }

ml::Dataset tier_dataset(std::uint64_t seed) {
  const std::size_t dim = catalog_dim();
  std::vector<std::string> names(dim);
  for (std::size_t i = 0; i < dim; ++i) names[i] = "m" + std::to_string(i);
  ml::Dataset d(names);
  Rng rng(seed);
  std::vector<double> row(dim);
  for (int i = 0; i < 160; ++i) {
    const int y = i % 2;
    for (auto& v : row) v = rng.uniform();
    row[0] = y + rng.normal(0.0, 0.2);
    row[2] = y + rng.normal(0.0, 0.3);
    d.add(row, y);
  }
  return d;
}

std::string make_bundle() {
  core::SynopsisBuilder builder;
  std::vector<core::Synopsis> synopses;
  synopses.push_back(builder.build(
      tier_dataset(17), {"mix", "app", 0, "hpc", ml::LearnerKind::kTan}));
  synopses.push_back(builder.build(
      tier_dataset(19), {"mix", "db", 1, "hpc", ml::LearnerKind::kTan}));
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = 2;
  opts.synopsis_tiers = {0, 1};
  core::CapacityMonitor monitor(std::move(synopses), opts);
  Rng rng(23);
  std::vector<std::vector<double>> rows(2, std::vector<double>(catalog_dim()));
  for (int i = 0; i < 40; ++i) {
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
}

net::Tick make_tick(int num_tiers, int level, Rng& rng) {
  net::Tick tick;
  tick.tiers.resize(static_cast<std::size_t>(num_tiers));
  for (auto& slot : tick.tiers) {
    slot.present = true;
    slot.values.resize(catalog_dim());
    for (auto& v : slot.values) v = rng.uniform();
    slot.values[0] = level + rng.normal(0.0, 0.2);
    slot.values[2] = level + rng.normal(0.0, 0.3);
  }
  return tick;
}

struct Daemon {
  core::MonitorSource source;
  net::EventLoop loop;
  std::optional<net::Server> server;
  std::thread thread;
  std::atomic<bool> want_stop{false};

  explicit Daemon(std::string bundle, net::ServerConfig cfg = {},
                  net::Uplink* uplink = nullptr)
      : source(core::MonitorSource::from_bytes(std::move(bundle))) {
    cfg.num_tiers = 2;
    server.emplace(loop, source, cfg);
    if (uplink != nullptr) server->set_uplink(uplink);
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

// The in-process reference pipeline: the same bundle instantiated
// locally and driven tick by tick through the daemon's aggregation +
// validation stages (same ServerConfig knobs) but the scalar
// observe_masked loop. Every wire config must reproduce this stream
// exactly — the daemon's batched predict_masked_many and frame
// coalescing are pure performance optimizations.
std::vector<net::DecisionFrame> reference_decisions(
    const std::string& bundle, const std::vector<net::Tick>& stream,
    int num_tiers, std::uint16_t window) {
  auto source = core::MonitorSource::from_bytes(bundle);
  core::CapacityMonitor monitor = source.instantiate();
  monitor.predictor().reset_history();
  const std::size_t dim = catalog_dim();
  const net::ServerConfig cfg;  // knob defaults match the Daemon's
  core::RowValidator::Options vopts;
  vopts.dim = dim;
  vopts.max_abs = cfg.validator_max_abs;
  core::RowValidator validator(vopts);
  std::vector<counters::InstanceAggregator> aggs;
  for (int t = 0; t < num_tiers; ++t)
    aggs.emplace_back(dim, window, cfg.max_missing_fraction,
                      cfg.aggregator_trim);
  const auto tiers = static_cast<std::size_t>(num_tiers);
  std::vector<std::vector<double>> rows(tiers, std::vector<double>(dim));
  std::vector<std::uint8_t> mask(tiers, 0);
  std::vector<net::DecisionFrame> out;
  for (const net::Tick& tick : stream) {
    bool closed = false;
    for (std::size_t t = 0; t < tiers; ++t) {
      const auto result = tick.tiers[t].present
                              ? aggs[t].add_slot_view(tick.tiers[t].values)
                              : aggs[t].mark_missing_view();
      if (!result.window_closed) continue;
      closed = true;
      if (result.valid) {
        std::copy(result.instance.begin(), result.instance.end(),
                  rows[t].begin());
        mask[t] = validator.validate({rows[t].data(), dim}) ==
                          core::RowVerdict::kValid
                      ? 1
                      : 0;
      } else {
        std::fill(rows[t].begin(), rows[t].end(), 0.0);
        mask[t] = 0;
      }
    }
    if (!closed) continue;
    const auto d = monitor.observe_masked(rows, mask);
    net::DecisionFrame f;
    f.window_index = static_cast<std::uint32_t>(out.size());
    f.state = static_cast<std::uint8_t>(d.state);
    f.confident = d.confident ? 1 : 0;
    f.degraded = d.degraded ? 1 : 0;
    f.hc = d.hc;
    f.bottleneck_tier = d.bottleneck_tier;
    f.staleness = d.staleness;
    out.push_back(f);
  }
  return out;
}

bool same_decision(const net::DecisionFrame& a, const net::DecisionFrame& b) {
  return a.window_index == b.window_index && a.state == b.state &&
         a.confident == b.confident && a.degraded == b.degraded &&
         a.hc == b.hc && a.bottleneck_tier == b.bottleneck_tier &&
         a.staleness == b.staleness;
}

struct FaninResult {
  std::size_t fanin = 0;
  double windows_per_sec = 0.0;
  bool identical_output = false;
};

// A 2-level aggregation tree: `fanin` leaf daemons, each covering a
// disjoint slice of the 2-synopsis fleet GPV, streaming VOTES into one
// parent. fanin=1 is a single leaf covering both synopses; fanin=2
// splits per tier, the shape of a real per-tier deployment. The merged
// fleet decision stream must equal the in-process reference exactly;
// the rate is end-to-end fleet windows per second (agent tick -> leaf
// decide -> uplink -> parent merge -> fleet DECISION back at the leaf).
FaninResult run_fanin(const std::string& bundle, std::size_t fanin,
                      const std::vector<net::Tick>& stream,
                      int batch_ticks, std::uint16_t window,
                      const std::vector<net::DecisionFrame>& reference) {
  Daemon parent(bundle);
  const std::vector<std::vector<std::uint16_t>> coverage =
      fanin == 1 ? std::vector<std::vector<std::uint16_t>>{{0, 1}}
                 : std::vector<std::vector<std::uint16_t>>{{0}, {1}};
  std::vector<std::unique_ptr<net::Uplink>> uplinks;
  std::vector<std::unique_ptr<Daemon>> leaves;
  for (std::size_t l = 0; l < coverage.size(); ++l) {
    net::Uplink::Options uo;
    uo.port = parent.server->port();
    uo.leaf = "bench-leaf-" + std::to_string(l);
    uo.coverage = coverage[l];
    uplinks.push_back(std::make_unique<net::Uplink>(uo));
    leaves.push_back(std::make_unique<Daemon>(bundle, net::ServerConfig{},
                                              uplinks.back().get()));
    uplinks.back()->start();
  }
  const auto subscribed = [&] {
    for (const auto& u : uplinks)
      if (!u->stats().subscribed) return false;
    return true;
  };
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (!subscribed()) {
    if (Clock::now() >= deadline) {
      std::fprintf(stderr, "bench_net_loopback: uplinks never subscribed\n");
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Each leaf's agent streams the same ticks with the uncovered tiers
  // masked absent (synopsis index == tier index for this bundle). The
  // masking happens on a copy after construction, so the covered tier's
  // values are draw-for-draw identical to the flat reference stream.
  const int ticks = static_cast<int>(stream.size());
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  const auto t0 = Clock::now();
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    pool.emplace_back([&, l] {
      net::Client agent;
      agent.connect("127.0.0.1", leaves[l]->server->port());
      net::HelloRequest hello;
      hello.agent = "bench-fanin-" + std::to_string(l);
      hello.level = "hpc";
      hello.num_tiers = 2;
      hello.window = window;
      if (!agent.hello(hello).accepted) {
        ++failures;
        return;
      }
      const auto covered = [&](std::size_t tier) {
        for (const std::uint16_t s : coverage[l])
          if (s == tier) return true;
        return false;
      };
      std::size_t drained = 0;
      for (int start = 0; start < ticks; start += batch_ticks) {
        net::SampleBatch batch;
        batch.first_tick = static_cast<std::uint32_t>(start);
        const int end = std::min(start + batch_ticks, ticks);
        batch.ticks.assign(stream.begin() + start, stream.begin() + end);
        for (net::Tick& tick : batch.ticks) {
          for (std::size_t t = 0; t < tick.tiers.size(); ++t) {
            if (covered(t)) continue;
            tick.tiers[t].present = false;
            tick.tiers[t].values.clear();
          }
        }
        agent.send_batch(batch);
        drained += agent.drain_decisions().size();
      }
      // Leaf-local decisions (degraded when a tier is masked) are not
      // what the tree is for, but draining them keeps the leaf's write
      // queue clear so the session never stalls.
      while (drained < reference.size()) {
        (void)agent.next_decision();
        ++drained;
      }
    });
  }

  std::vector<net::DecisionFrame> fleet;
  fleet.reserve(reference.size());
  while (fleet.size() < reference.size()) {
    if (Clock::now() >= deadline) break;
    for (net::DecisionFrame& d : uplinks[0]->drain_fleet_decisions())
      fleet.push_back(d);
    if (fleet.size() < reference.size())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& t : pool) t.join();
  for (auto& u : uplinks) u->stop();

  FaninResult r;
  r.fanin = fanin;
  r.windows_per_sec = static_cast<double>(fleet.size()) / seconds;
  r.identical_output =
      failures.load() == 0 && fleet.size() == reference.size();
  for (std::size_t i = 0; r.identical_output && i < fleet.size(); ++i)
    r.identical_output = same_decision(fleet[i], reference[i]);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_net.json";
  int ticks = 60000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ticks") == 0 && i + 1 < argc) {
      char* end = nullptr;
      ticks = static_cast<int>(std::strtol(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "bench_net_loopback: --ticks needs an integer\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--ticks N]\n", argv[0]);
      return 2;
    }
  }
  constexpr int kTiers = 2;
  constexpr std::uint16_t kWindow = 4;
  constexpr int kBatch = 500;
  ticks = std::max(ticks, kBatch);

  std::printf("training bench model...\n");
  const std::string bundle = make_bundle();
  Rng rng(101);
  std::vector<net::Tick> stream;
  stream.reserve(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i)
    stream.push_back(make_tick(kTiers, (i / 200) % 2, rng));

  std::printf("computing in-process reference decisions...\n");
  const std::vector<net::DecisionFrame> reference =
      reference_decisions(bundle, stream, kTiers, kWindow);

  std::printf("fanin sweep (2-level aggregation tree)...\n");
  std::vector<FaninResult> fanin_results;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}})
    fanin_results.push_back(
        run_fanin(bundle, n, stream, kBatch, kWindow, reference));
  bool identical_all = true;
  for (const auto& r : fanin_results)
    identical_all = identical_all && r.identical_output;

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::string kernel = "unknown";
  {
    utsname uts{};
    if (::uname(&uts) == 0)
      kernel = std::string(uts.sysname) + " " + uts.release;
  }
  TextTable table("hpcapd aggregation tree over loopback");
  table.set_header({"fanin", "fleet windows/sec", "output"});
  for (const auto& r : fanin_results)
    table.add_row({std::to_string(r.fanin),
                   TextTable::num(r.windows_per_sec, 0),
                   r.identical_output ? "identical" : "DIVERGED"});
  table.add_note("sampling ticks per leaf agent: " + std::to_string(ticks) +
                 ", decisions: " + std::to_string(reference.size()));
  table.add_note("host: " + kernel + ", " +
                 std::to_string(hardware_threads) + " hardware thread(s)");
  std::printf("%s\n", table.render().c_str());

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"net_loopback\",\n"
                 "  \"tiers\": %d,\n"
                 "  \"window\": %u,\n"
                 "  \"ticks\": %d,\n"
                 "  \"fanin\": [\n",
                 kTiers, kWindow, ticks);
    for (std::size_t i = 0; i < fanin_results.size(); ++i) {
      const auto& r = fanin_results[i];
      std::fprintf(f,
                   "    {\"fanin\": %zu, \"fleet_windows_per_sec\": %.0f, "
                   "\"identical_output\": %s}%s\n",
                   r.fanin, r.windows_per_sec,
                   r.identical_output ? "true" : "false",
                   i + 1 < fanin_results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"host\": {\"hardware_threads\": %u, "
                 "\"kernel\": \"%s\"},\n"
                 "  \"decisions\": %zu,\n"
                 "  \"identical_output\": %s\n"
                 "}\n",
                 hardware_threads, kernel.c_str(), reference.size(),
                 identical_all ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical_all ? 0 : 1;
}

// hpcapctl — command-line front end to the hpcap library.
//
// Subcommands:
//   capacity  --mix <browsing|shopping|ordering|FRACTION> [--skew S]
//       Analytic and stress-measured capacity of the simulated testbed
//       for a traffic mix.
//   train     --out FILE [--level hpc|os] [--learner TAN|SVM|Naive|LR]
//             [--seed N] [--history-bits H] [--delta D] [--pessimistic]
//       Runs the paper's offline training recipe (ramp + spike + hover on
//       the browsing and ordering mixes), builds the synopses and the
//       coordinated predictor, and saves the monitor bundle.
//   evaluate  --model FILE --workload <ordering|browsing|interleaved|
//             unknown|shopping> [--seed N]
//       Replays a fresh test workload against a saved monitor and reports
//       overload / bottleneck accuracy.
//   monitor   --model FILE --workload W [--duration SECONDS] [--seed N]
//       Streams per-window decisions (state, Hc, bottleneck) next to the
//       simulator's ground truth.
//   collect   --out FILE --workload W [--recipe train|test] [--seed N]
//       Runs a workload and archives the labeled 30 s instances as CSV
//       (testbed/trace.h format) for offline analysis.
//   serve     --model FILE [--port N] [--bind ADDR] [--num-tiers K] ...
//       Runs the hpcapd capacity-monitoring daemon in the foreground
//       (same wire protocol and signals as the hpcapd binary).
//   stream    --port N --trace FILE [--host ADDR] [--level hpc|os]
//             [--window W] [--batch B] [--retries N] [--backoff-ms MS]
//             [--deadline-s S] [--stats] [--shutdown]
//       Replays an archived trace (collect) over the socket to a running
//       daemon and prints the decisions it streams back. --retries opts
//       into resilient sessions: the client reconnects with jittered
//       exponential backoff (starting at --backoff-ms, capped by the
//       per-outage --deadline-s budget) and resumes the session
//       exactly-once, so faults never duplicate or drop a decision.
//
// `hpcapctl --version` prints the wire-protocol and model-format
// versions, so agents and daemons can be checked for compatibility.
// Exit codes: 0 success, 1 runtime failure (bad trace/model file), 2
// usage error, and for `stream`: 3 transport failure (unreachable or
// lost daemon, budget exhausted), 4 wire-protocol violation, 5 daemon
// rejected the session. Everything is deterministic given --seed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/model_io.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "testbed/trace.h"
#include "ml/evaluate.h"
#include "testbed/experiment.h"
#include "util/log.h"
#include "util/table.h"

using namespace hpcap;

namespace {

// Minimal flag parser: --name value pairs plus boolean switches.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        values_[key] = argv[++i];
      else
        values_[key] = "";
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }
  std::string get_or(const std::string& key, const std::string& def) const {
    return get(key).value_or(def);
  }
  double num_or(const std::string& key, double def) const {
    const auto v = get(key);
    return v ? std::stod(*v) : def;
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

  // Every subcommand declares its flag set; anything else is a typo the
  // user should hear about rather than a silently ignored option.
  bool reject_unknown(const char* cmd,
                      std::initializer_list<const char*> allowed) const {
    bool ok = true;
    for (const auto& [key, value] : values_) {
      bool known = false;
      for (const char* a : allowed) known = known || key == a;
      if (!known) {
        std::fprintf(stderr, "%s: unrecognized flag '--%s'\n", cmd,
                     key.c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::shared_ptr<const tpcw::Mix> parse_mix(const std::string& name,
                                           double skew) {
  if (name == "browsing")
    return std::make_shared<const tpcw::Mix>(tpcw::browsing_mix());
  if (name == "shopping")
    return std::make_shared<const tpcw::Mix>(tpcw::shopping_mix());
  if (name == "ordering")
    return std::make_shared<const tpcw::Mix>(tpcw::ordering_mix());
  if (name == "unknown") return testbed::unknown_mix();
  // A numeric browse fraction builds a custom mix.
  const double fraction = std::stod(name);
  return std::make_shared<const tpcw::Mix>(
      tpcw::Mix::with_class_fractions("custom", fraction, skew));
}

ml::LearnerKind parse_learner(const std::string& name) {
  if (name == "LR") return ml::LearnerKind::kLinearRegression;
  if (name == "Naive") return ml::LearnerKind::kNaiveBayes;
  if (name == "SVM") return ml::LearnerKind::kSvm;
  if (name == "TAN") return ml::LearnerKind::kTan;
  std::fprintf(stderr, "unknown learner '%s'\n", name.c_str());
  std::exit(2);
}

tpcw::WorkloadSchedule parse_workload(const std::string& name,
                                      const testbed::TestbedConfig& cfg) {
  if (name == "interleaved") {
    return testbed::interleaved_schedule(
        std::make_shared<const tpcw::Mix>(tpcw::browsing_mix()),
        std::make_shared<const tpcw::Mix>(tpcw::ordering_mix()), cfg);
  }
  return testbed::testing_schedule(parse_mix(name, 0.0), cfg);
}

int cmd_capacity(const Args& args) {
  testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
  cfg.seed = static_cast<std::uint64_t>(
      args.num_or("seed", static_cast<double>(cfg.seed)));
  const auto mix =
      parse_mix(args.get_or("mix", "shopping"), args.num_or("skew", 0.0));
  const auto cap = testbed::measure_capacity(*mix, cfg);
  TextTable t("Capacity of '" + mix->name() + "' (browse fraction " +
              TextTable::num(mix->browse_fraction(), 2) + ")");
  t.set_header({"estimator", "req/s", "EBs", "bottleneck"});
  t.add_row({"analytic (uncontended MVA)",
             TextTable::num(cap.analytic.saturation_rps, 1),
             std::to_string(cap.analytic.saturation_ebs),
             cap.analytic.bottleneck_tier == testbed::kAppTier ? "app"
                                                               : "db"});
  t.add_row({"measured (stress calibration)",
             TextTable::num(cap.saturation_rps, 1),
             std::to_string(cap.saturation_ebs), "-"});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const auto out_path = args.get("out");
  if (!out_path) {
    std::fprintf(stderr, "train: --out FILE is required\n");
    return 2;
  }
  testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
  cfg.seed = static_cast<std::uint64_t>(
      args.num_or("seed", static_cast<double>(cfg.seed)));
  const std::string level = args.get_or("level", "hpc");
  const auto learner = parse_learner(args.get_or("learner", "TAN"));

  std::printf("Collecting training runs (browsing + ordering)...\n");
  const auto browsing =
      std::make_shared<const tpcw::Mix>(tpcw::browsing_mix());
  const auto ordering =
      std::make_shared<const tpcw::Mix>(tpcw::ordering_mix());
  const auto train_b =
      testbed::collect(testbed::training_schedule(browsing, cfg), cfg);
  const auto train_o =
      testbed::collect(testbed::training_schedule(ordering, cfg), cfg);

  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = testbed::kNumTiers;
  opts.history_bits = static_cast<int>(args.num_or("history-bits", 3));
  opts.delta = static_cast<int>(args.num_or("delta", 5));
  if (args.has("pessimistic")) opts.scheme = core::TieScheme::kPessimistic;

  std::printf("Building %s synopses (%s level) and coordinated tables...\n",
              ml::learner_name(learner).c_str(), level.c_str());
  const core::CapacityMonitor monitor = testbed::build_monitor(
      {{"ordering", &train_o}, {"browsing", &train_b}}, level, learner,
      opts);

  std::ofstream f(*out_path);
  if (!f) {
    std::fprintf(stderr, "train: cannot open '%s'\n", out_path->c_str());
    return 1;
  }
  core::save_monitor(f, monitor);
  std::printf("Saved monitor (%zu synopses) to %s\n",
              monitor.synopses().size(), out_path->c_str());
  return 0;
}

std::optional<core::CapacityMonitor> load_model(const Args& args) {
  const auto path = args.get("model");
  if (!path) {
    std::fprintf(stderr, "--model FILE is required\n");
    return std::nullopt;
  }
  std::ifstream f(*path);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", path->c_str());
    return std::nullopt;
  }
  return core::load_monitor(f);
}

int cmd_evaluate(const Args& args) {
  auto monitor = load_model(args);
  if (!monitor) return 1;
  const std::string level = monitor->synopses().front().spec().level;

  testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
  cfg.seed = static_cast<std::uint64_t>(args.num_or("seed", 4242));
  const std::string workload = args.get_or("workload", "interleaved");
  const auto run = testbed::collect(parse_workload(workload, cfg), cfg);
  const auto bottlenecks =
      testbed::bottleneck_annotations(run.instances, run.labels);

  monitor->predictor().reset_history();
  ml::Confusion overload;
  std::size_t bn_total = 0, bn_hit = 0;
  for (std::size_t i = 0; i < run.instances.size(); ++i) {
    const auto d =
        monitor->observe(testbed::monitor_rows(run.instances[i], level));
    overload.add(run.labels[i], d.state);
    if (run.labels[i] == 1) {
      ++bn_total;
      bn_hit += d.state == 1 && d.bottleneck_tier == bottlenecks[i];
    }
  }
  std::printf("workload=%s windows=%zu overloaded=%zu\n", workload.c_str(),
              run.instances.size(),
              static_cast<std::size_t>(overload.tp + overload.fn));
  std::printf("overload prediction: BA %.3f (TPR %.3f, TNR %.3f)\n",
              overload.balanced_accuracy(), overload.tpr(), overload.tnr());
  if (bn_total)
    std::printf("bottleneck identification: %.3f\n",
                static_cast<double>(bn_hit) /
                    static_cast<double>(bn_total));
  return 0;
}

int cmd_monitor(const Args& args) {
  auto monitor = load_model(args);
  if (!monitor) return 1;
  const std::string level = monitor->synopses().front().spec().level;

  testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
  cfg.seed = static_cast<std::uint64_t>(args.num_or("seed", 777));
  const std::string workload = args.get_or("workload", "interleaved");
  auto schedule = parse_workload(workload, cfg);
  const double duration = args.num_or("duration", schedule.duration());

  monitor->predictor().reset_history();
  core::HealthLabeler labeler;
  testbed::Testbed bed(cfg);
  std::printf("%-8s %-12s %6s %8s %6s  %s\n", "time", "mix", "EBs",
              "tput", "truth", "decision");
  bed.set_instance_observer([&](const testbed::InstanceRecord& rec) {
    if (rec.end_time > duration) return;
    const auto d = monitor->observe(testbed::monitor_rows(rec, level));
    const int truth = labeler.label(rec.health);
    std::printf("%-8.0f %-12s %6d %8.1f %6s  %s hc=%+d%s\n", rec.end_time,
                rec.mix_name.c_str(), rec.ebs, rec.health.throughput,
                truth ? "OVER" : "ok", d.state ? "OVERLOAD" : "healthy",
                d.hc,
                d.state && d.bottleneck_tier >= 0
                    ? (d.bottleneck_tier == testbed::kAppTier
                           ? " bottleneck=app"
                           : " bottleneck=db")
                    : "");
  });
  bed.run(schedule);
  return 0;
}

int cmd_collect(const Args& args) {
  const auto out_path = args.get("out");
  if (!out_path) {
    std::fprintf(stderr, "collect: --out FILE is required\n");
    return 2;
  }
  testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
  cfg.seed = static_cast<std::uint64_t>(
      args.num_or("seed", static_cast<double>(cfg.seed)));
  const std::string workload = args.get_or("workload", "shopping");
  const std::string recipe = args.get_or("recipe", "test");

  tpcw::WorkloadSchedule schedule =
      recipe == "train" && workload != "interleaved"
          ? testbed::training_schedule(parse_mix(workload, 0.0), cfg)
          : parse_workload(workload, cfg);
  const auto run = testbed::collect(schedule, cfg);

  std::ofstream f(*out_path);
  if (!f) {
    std::fprintf(stderr, "collect: cannot open '%s'\n", out_path->c_str());
    return 1;
  }
  testbed::write_trace(f, run.instances, run.labels);
  std::printf("Wrote %zu labeled instances (%s, %s recipe) to %s\n",
              run.instances.size(), workload.c_str(), recipe.c_str(),
              out_path->c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  const auto model = args.get("model");
  if (!model) {
    std::fprintf(stderr, "serve: --model FILE is required\n");
    return 2;
  }
  net::ServerConfig cfg;
  cfg.port = static_cast<std::uint16_t>(args.num_or("port", 0));
  cfg.bind_address = args.get_or("bind", cfg.bind_address);
  cfg.num_tiers =
      static_cast<int>(args.num_or("num-tiers", testbed::kNumTiers));
  cfg.idle_timeout = args.num_or("idle-timeout", cfg.idle_timeout);
  cfg.handshake_timeout =
      args.num_or("handshake-timeout", cfg.handshake_timeout);
  cfg.max_write_queue = static_cast<std::size_t>(
      args.num_or("max-write-queue", static_cast<double>(cfg.max_write_queue)));
  cfg.session_linger = args.num_or("session-linger", cfg.session_linger);
  cfg.decision_replay = static_cast<std::size_t>(args.num_or(
      "decision-replay", static_cast<double>(cfg.decision_replay)));
  cfg.reactors =
      static_cast<std::size_t>(args.num_or("reactors", 1.0));
  if (cfg.reactors < 1) {
    std::fprintf(stderr, "serve: --reactors must be >= 1\n");
    return 2;
  }
  const std::string control = args.get_or("control", "auto");
  if (control == "auto")
    cfg.control_policy = net::ControlPolicy::kAuto;
  else if (control == "allow")
    cfg.control_policy = net::ControlPolicy::kAllow;
  else if (control == "deny")
    cfg.control_policy = net::ControlPolicy::kDeny;
  else {
    std::fprintf(stderr, "serve: unknown control policy '%s'\n",
                 control.c_str());
    return 2;
  }
  if (args.has("verbose")) set_log_level(LogLevel::kInfo);
  try {
    return net::run_daemon(cfg, *model, /*install_signals=*/true);
  } catch (const std::invalid_argument& e) {
    // The daemon refused the configuration: a usage error.
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 1;
  }
}

// Strict numeric flag parsing for the stream subcommand: the resilience
// knobs control retry budgets, so a typo must be a usage error (exit 2),
// never a silently-zero budget.
std::optional<double> strict_number(const Args& args, const char* flag,
                                    double def, double min_value) {
  const auto raw = args.get(flag);
  if (!raw) return def;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (raw->empty() || end != raw->c_str() + raw->size() || !(v >= min_value)) {
    std::fprintf(stderr, "stream: --%s needs a number >= %g, got '%s'\n",
                 flag, min_value, raw->c_str());
    return std::nullopt;
  }
  return v;
}

int cmd_stream(const Args& args) {
  const auto trace_path = args.get("trace");
  const auto port = args.get("port");
  if (!trace_path || !port) {
    std::fprintf(stderr, "stream: --trace FILE and --port N are required\n");
    return 2;
  }
  const std::string host = args.get_or("host", "127.0.0.1");
  const std::string level = args.get_or("level", "hpc");
  const int window = static_cast<int>(args.num_or("window", 1));
  const int batch = std::max(1, static_cast<int>(args.num_or("batch", 64)));
  const bool quiet = args.has("quiet");

  const auto retries = strict_number(args, "retries", 0.0, 0.0);
  const auto backoff_ms = strict_number(args, "backoff-ms", 50.0, 1.0);
  const auto deadline_s = strict_number(args, "deadline-s", 60.0, 0.001);
  if (!retries || !backoff_ms || !deadline_s) return 2;
  net::RetryPolicy policy = net::RetryPolicy::none();
  if (*retries > 0.0) {
    policy = net::RetryPolicy{};
    policy.max_attempts = static_cast<int>(*retries);
    policy.initial_backoff = *backoff_ms / 1000.0;
    policy.deadline = *deadline_s;
  }

  try {
    // Connect and handshake before touching the trace file: an
    // unreachable or hostile daemon reports as a transport/protocol
    // failure (exit 3/4/5) independent of local file problems (exit 1).
    net::Client client;
    client.set_retry_policy(policy);
    client.connect(host, static_cast<std::uint16_t>(std::stod(*port)));
    net::HelloRequest hello;
    hello.agent = args.get_or("agent", "hpcapctl-stream");
    hello.level = level;
    hello.num_tiers = static_cast<std::uint16_t>(
        args.num_or("num-tiers", testbed::kNumTiers));
    hello.window = static_cast<std::uint16_t>(window);
    const auto reply = client.hello(hello);
    if (!reply.accepted) {
      std::fprintf(stderr, "stream: daemon rejected HELLO: %s\n",
                   reply.message.c_str());
      return 5;
    }

    std::ifstream f(*trace_path);
    if (!f) {
      std::fprintf(stderr, "stream: cannot open '%s'\n",
                   trace_path->c_str());
      return 1;
    }
    std::vector<int> labels;
    const auto records = testbed::read_trace(f, &labels);
    if (records.empty()) {
      std::fprintf(stderr, "stream: trace has no instances\n");
      return 1;
    }
    if (records[0].hpc.size() != reply.dims.size()) {
      std::fprintf(stderr,
                   "stream: trace has %zu tiers but the daemon expects %zu\n",
                   records[0].hpc.size(), reply.dims.size());
      return 1;
    }
    std::printf("connected to %s:%s — model v%u, window %d, %zu instances\n",
                host.c_str(), port->c_str(), reply.model_version, window,
                records.size());

    // Each archived instance becomes one sampling tick; with the default
    // --window 1 every tick closes a window, so decisions line up 1:1
    // with the trace's labeled instances.
    ml::Confusion confusion;
    std::size_t decisions = 0, degraded = 0;
    const auto consume = [&](const net::DecisionFrame& d) {
      // A window spans `window` consecutive trace instances; score the
      // decision against the label of the window's first instance.
      const std::size_t first = static_cast<std::size_t>(d.window_index) *
                                static_cast<std::size_t>(window);
      const int truth = first < labels.size() ? labels[first] : -1;
      if (truth >= 0) confusion.add(truth, d.state);
      degraded += d.degraded != 0;
      ++decisions;
      if (!quiet)
        std::printf("window %5u  %-8s hc=%+d%s%s\n", d.window_index,
                    d.state ? "OVERLOAD" : "healthy", d.hc,
                    d.state && d.bottleneck_tier >= 0
                        ? (" bottleneck=tier" +
                           std::to_string(d.bottleneck_tier))
                              .c_str()
                        : "",
                    d.degraded ? " [degraded]" : "");
    };

    // The batch's tick/slot vectors are sized once and overwritten in
    // place each round, so the steady-state encode+send loop reuses both
    // this storage and the client's internal encode scratch.
    net::SampleBatch pending;
    pending.ticks.resize(static_cast<std::size_t>(batch));
    std::size_t used = 0;
    std::uint32_t tick = 0;
    for (const auto& rec : records) {
      if (used == 0) pending.first_tick = tick;
      net::Tick& t = pending.ticks[used++];
      const auto rows = testbed::monitor_rows(rec, level);
      const auto validity = testbed::monitor_row_validity(rec, level);
      t.tiers.resize(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        t.tiers[i].present = validity[i] != 0;
        if (t.tiers[i].present)
          t.tiers[i].values.assign(rows[i].begin(), rows[i].end());
      }
      ++tick;
      if (used == static_cast<std::size_t>(batch)) {
        client.send_batch(pending);
        used = 0;
        for (const auto& d : client.drain_decisions()) consume(d);
      }
    }
    if (used > 0) {
      pending.ticks.resize(used);  // final partial batch
      client.send_batch(pending);
    }

    const std::size_t expected =
        records.size() / static_cast<std::size_t>(window);
    while (decisions < expected) consume(client.next_decision());

    std::printf("%zu decisions (%zu degraded)\n", decisions, degraded);
    if (confusion.tp + confusion.fn + confusion.fp + confusion.tn > 0)
      std::printf("vs trace labels: BA %.3f (TPR %.3f, TNR %.3f)\n",
                  confusion.balanced_accuracy(), confusion.tpr(),
                  confusion.tnr());
    if (policy.enabled()) {
      const auto s = client.session();
      std::printf(
          "session: %llu reconnects, %llu batches replayed, "
          "%llu decisions deduped\n",
          static_cast<unsigned long long>(s.reconnects),
          static_cast<unsigned long long>(s.replayed_batches),
          static_cast<unsigned long long>(s.deduped_decisions));
    }
    if (args.has("stats")) {
      const auto stats = client.stats();
      TextTable t("daemon stats");
      t.set_header({"counter", "value"});
      for (const auto& [key, value] : stats.entries)
        t.add_row({key, std::to_string(value)});
      std::printf("%s", t.render().c_str());
    }
    if (args.has("shutdown")) {
      client.shutdown_server();
      std::printf("daemon shut down\n");
    }
    return 0;
  } catch (const net::SessionLost& e) {
    std::fprintf(stderr, "stream: %s\n", e.what());
    return 5;
  } catch (const net::ProtocolError& e) {
    std::fprintf(stderr, "stream: %s\n", e.what());
    return 4;
  } catch (const net::TransportError& e) {
    std::fprintf(stderr, "stream: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stream: %s\n", e.what());
    return 1;
  }
}

void usage() {
  std::fprintf(
      stderr,
      "usage: hpcapctl "
      "<capacity|train|evaluate|monitor|collect|serve|stream> "
      "[--flag value ...]\n"
      "       hpcapctl --version\n"
      "see the header of tools/hpcapctl.cpp for details\n");
}

int print_version() {
  std::printf("hpcapctl protocol v%u, model format %s\n",
              static_cast<unsigned>(net::kProtocolVersion),
              net::kModelFormatVersion);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") return print_version();
  const Args args(argc, argv);
  const auto run = [&](const char* name,
                       std::initializer_list<const char*> allowed,
                       int (*fn)(const Args&)) {
    if (!args.reject_unknown(name, allowed)) {
      usage();
      return 2;
    }
    return fn(args);
  };
  if (cmd == "capacity")
    return run("capacity", {"mix", "skew", "seed"}, cmd_capacity);
  if (cmd == "train")
    return run("train",
               {"out", "level", "learner", "seed", "history-bits", "delta",
                "pessimistic"},
               cmd_train);
  if (cmd == "evaluate")
    return run("evaluate", {"model", "workload", "seed"}, cmd_evaluate);
  if (cmd == "monitor")
    return run("monitor", {"model", "workload", "duration", "seed"},
               cmd_monitor);
  if (cmd == "collect")
    return run("collect", {"out", "workload", "recipe", "seed"},
               cmd_collect);
  if (cmd == "serve")
    return run("serve",
               {"model", "port", "bind", "num-tiers", "idle-timeout",
                "handshake-timeout", "max-write-queue", "session-linger",
                "decision-replay", "control", "reactors", "verbose"},
               cmd_serve);
  if (cmd == "stream")
    return run("stream",
               {"host", "port", "trace", "level", "window", "batch",
                "num-tiers", "retries", "backoff-ms", "deadline-s", "agent",
                "stats", "shutdown", "quiet"},
               cmd_stream);
  std::fprintf(stderr, "hpcapctl: unknown subcommand '%s'\n", cmd.c_str());
  usage();
  return 2;
}

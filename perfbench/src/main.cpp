// perfbench — the hpcap benchmark driver (see perfbench/README.md).
//
//   perfbench --workload inproc|wire-bulk|wire-tick|wire-sharded
//             --seed N --seconds S --trace 0|1
//             --bin-dir DIR --out-dir DIR [--perturb-reference]
//
// Builds its fixtures from --seed, runs one workload for S seconds,
// checks every decision against the scalar in-process oracle, and prints
// the metrics: first one human-readable line each, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 correct, 1 a decision diverged or went missing (the
// result is still printed), 2 usage, 3 the run could not complete.
#include <malloc.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "fixture.h"
#include "host.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --out-dir DIR "
               "[--perturb-reference]\n");
  return 2;
}

struct Shown {
  const MetricDef* def;
  double value;
};

// Orders `got` by `defs`, checking that both name the same metrics.
std::vector<Shown> canonical(const Metrics& got,
                             const std::vector<MetricDef>& defs) {
  std::vector<Shown> out;
  for (const MetricDef& d : defs) {
    const auto it = got.find(d.name);
    if (it == got.end())
      throw std::logic_error(std::string("metric not reported: ") + d.name);
    if (!std::isfinite(it->second))
      throw std::runtime_error(std::string("non-finite value for ") + d.name);
    out.push_back({&d, it->second});
  }
  if (out.size() != got.size())
    throw std::logic_error("a reported metric is not declared");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value();
      have_workload = known_workload(cfg.workload);
    } else if (arg == "--seed") {
      const std::string v = value();
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      const std::string v = value();
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(cfg.seconds > 0)) return usage();
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
    } else if (arg == "--bin-dir") {
      cfg.bin_dir = value();
    } else if (arg == "--out-dir") {
      cfg.out_dir = value();
    } else if (arg == "--perturb-reference") {
      cfg.perturb = true;
    } else {
      return usage();
    }
  }
  if (!have_workload || cfg.bin_dir.empty() || cfg.out_dir.empty())
    return usage();
  ::mkdir(cfg.out_dir.c_str(), 0755);
  // Keep freed heap in the process: repeated set-ups then do not pay page
  // faults that depend on how fixture generation left the heap.
  ::mallopt(M_TRIM_THRESHOLD, 256 << 20);
  ::mallopt(M_MMAP_THRESHOLD, 256 << 20);

  try {
    cfg.placement = plan_placement();
    const Placement& pl = cfg.placement;
    const std::string hw = probe_hw_counters();
    std::string speeds;
    for (const auto& [cpu, msteps] : pl.cpu_speed)
      speeds += " " + std::to_string(cpu) + ":" +
                std::to_string(static_cast<int>(msteps));
    std::printf("host: nproc %d, %s, cpu probe (Msteps/s):%s; daemon cpus "
                "{%s}, agent cpus {%s}, local cpu %d, perf_event_paranoid %d, "
                "hardware counters: %s\n",
                pl.nproc, kernel_release().c_str(), speeds.c_str(),
                cpu_list(pl.daemon_cpus).c_str(),
                cpu_list(pl.agent_cpus).c_str(), pl.local_cpu,
                perf_event_paranoid(), hw.c_str());
    if (cfg.trace && hw != "ok")
      std::printf("SKIP hardware perf_event counters: %s\n", hw.c_str());
    std::fflush(stdout);

    const Fixture fx = make_fixture(cfg.seed);
    std::printf("fixture: seed %llu, %zu ticks x %d tiers x %zu metrics, "
                "model %zu bytes (train %.3f s, record %.3f s)\n",
                static_cast<unsigned long long>(cfg.seed), fx.stream.size(),
                kTiers, fx.dim, fx.bundle.size(), fx.train_s, fx.record_s);
    std::fflush(stdout);

    const Result res = run_workload(cfg, fx);
    for (const std::string& n : res.notes) std::printf("note: %s\n", n.c_str());
    const std::vector<Shown> e2e =
        canonical(res.end_to_end, end_to_end_defs());
    for (const Shown& m : e2e)
      std::printf("metric %s = %.6g %s\n", m.def->name, m.value, m.def->unit);
    std::printf("metric failed_frac = %.6g fraction (%llu of %llu decisions)\n",
                res.attempted > 0 ? static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted)
                                  : 0.0,
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
    std::vector<Shown> layer;
    if (cfg.trace) {
      layer = canonical(res.per_layer, per_layer_defs());
      for (const Shown& m : layer)
        std::printf("layer %s = %.6g %s\n", m.def->name, m.value,
                    m.def->unit);
    }

    const std::vector<Shown>& shown = cfg.trace ? layer : e2e;
    std::string json = "{\"correct\": ";
    json += res.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < shown.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", shown[i].value);
      json += std::string(i ? ", \"" : "\"") + shown[i].def->name +
              "\": {\"value\": " + buf + ", \"unit\": \"" +
              shown[i].def->unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}

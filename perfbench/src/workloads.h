// The four workloads and what a run of one reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fixture.h"
#include "host.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool perturb = false;   // negative control: corrupt one reference window
  std::string bin_dir;    // where hpcapd and the syscount shim live
  std::string out_dir;    // model file, daemon logs, span dumps
  Placement placement;
};

// Every metric a run prints, in print order, with its unit: the
// end-to-end set on every run, the per-layer set on traced runs.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();
using Metrics = std::map<std::string, double>;

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;  // untraced measurements
  Metrics per_layer;   // filled on traced runs only
  std::vector<std::string> notes;  // printed before the result line
};

// The latency limit for a wire-tick decision, timed from its tick's due
// time; a later decision counts as failed.
inline constexpr double kLatencyLimitMs = 100.0;

bool known_workload(const std::string& name);
Result run_workload(const RunConfig& cfg, const Fixture& fx);

}  // namespace perfbench

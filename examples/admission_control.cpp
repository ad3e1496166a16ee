// Admission control — the use case the paper builds capacity measurement
// *for* (§I): a front-end controller that regulates incoming traffic so
// the site never runs overloaded.
//
// Two identical flash-crowd scenarios (shopping mix, load surging far past
// capacity) are simulated:
//   1. unprotected — every request is admitted;
//   2. protected — a CapacityMonitor watches the HPC metrics of both
//      tiers each 30 s window, and an AIMD cap on the admitted rate
//      (ctrl::CapAdmissionController) sheds load whenever the coordinated
//      predictor says "overloaded"; each request passes the front door
//      with probability admit_fraction(offered rate).
// The protected run should keep response times near the healthy baseline
// at the cost of rejecting part of the surge — the textbook overload-
// prevention trade.
//
// Build & run:  ./build/examples/admission_control
#include <cstdio>
#include <memory>
#include <vector>

#include "ctrl/admission.h"
#include "testbed/experiment.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hpcap;

namespace {

struct ScenarioResult {
  double mean_rt = 0.0;
  double p95_rt = 0.0;
  double throughput = 0.0;
  double overloaded_windows = 0.0;
  std::uint64_t rejected = 0;
};

ScenarioResult run_scenario(const testbed::TestbedConfig& cfg,
                            const tpcw::WorkloadSchedule& schedule,
                            core::CapacityMonitor* monitor) {
  testbed::Testbed bed(cfg);
  ctrl::CapAdmissionController throttle;
  double fraction = 1.0;  // admit_fraction of the last window
  Rng gate_rng(cfg.seed ^ 0xAD417);

  if (monitor) {
    bed.set_admission_gate([&](const sim::Request&) {
      return gate_rng.bernoulli(fraction);
    });
    bed.set_instance_observer([&](const testbed::InstanceRecord& rec) {
      const auto decision =
          monitor->observe(testbed::monitor_rows(rec, "hpc"));
      throttle.on_window(decision, rec.offered_rate * fraction);
      fraction = throttle.admit_fraction(rec.offered_rate);
    });
  }
  bed.run(schedule);

  ScenarioResult out;
  RunningStats rt, tput;
  std::vector<double> rts;
  core::HealthLabeler labeler;
  int overloaded = 0;
  for (const auto& rec : bed.instances()) {
    rt.add(rec.health.mean_response_time);
    rts.push_back(rec.health.mean_response_time);
    tput.add(rec.health.throughput);
    overloaded += labeler.label(rec.health);
  }
  out.mean_rt = rt.mean();
  out.p95_rt = quantile(rts, 0.95);
  out.throughput = tput.mean();
  out.overloaded_windows =
      static_cast<double>(overloaded) /
      static_cast<double>(bed.instances().size());
  out.rejected = bed.rejected_requests();
  return out;
}

}  // namespace

int main() {
  testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
  const auto shopping =
      std::make_shared<const tpcw::Mix>(tpcw::shopping_mix());
  const auto browsing =
      std::make_shared<const tpcw::Mix>(tpcw::browsing_mix());
  const auto ordering =
      std::make_shared<const tpcw::Mix>(tpcw::ordering_mix());

  // Train the monitor offline, as the paper does (ramp + spike + hover on
  // the two representative mixes).
  std::printf("Training capacity monitor (offline stress runs)...\n");
  const auto train_b =
      testbed::collect(testbed::training_schedule(browsing, cfg), cfg);
  const auto train_o =
      testbed::collect(testbed::training_schedule(ordering, cfg), cfg);
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = testbed::kNumTiers;
  core::CapacityMonitor monitor = testbed::build_monitor(
      {{"ordering", &train_o}, {"browsing", &train_b}}, "hpc",
      ml::LearnerKind::kTan, opts);

  // Flash crowd: steady at 70% of capacity, then a surge to 1.8x for ten
  // minutes, then back.
  const auto cap = testbed::measure_capacity(*shopping, cfg);
  const auto surge = tpcw::WorkloadSchedule::concat(
      "flash-crowd",
      {tpcw::WorkloadSchedule::steady(
           shopping, static_cast<int>(0.7 * cap.saturation_ebs), 600.0),
       tpcw::WorkloadSchedule::steady(
           shopping, static_cast<int>(1.8 * cap.saturation_ebs), 600.0),
       tpcw::WorkloadSchedule::steady(
           shopping, static_cast<int>(0.7 * cap.saturation_ebs), 600.0)});

  std::printf("Running unprotected flash crowd...\n");
  testbed::TestbedConfig run_cfg = cfg;
  run_cfg.seed = cfg.seed + 77;
  const auto unprotected = run_scenario(run_cfg, surge, nullptr);
  std::printf("Running admission-controlled flash crowd...\n\n");
  monitor.predictor().reset_history();
  const auto protected_run = run_scenario(run_cfg, surge, &monitor);

  TextTable t("Flash crowd: unprotected vs HPC-driven admission control");
  t.set_header({"metric", "unprotected", "admission-controlled"});
  t.add_row({"mean response time (s)", TextTable::num(unprotected.mean_rt, 3),
             TextTable::num(protected_run.mean_rt, 3)});
  t.add_row({"p95 window response time (s)",
             TextTable::num(unprotected.p95_rt, 3),
             TextTable::num(protected_run.p95_rt, 3)});
  t.add_row({"mean throughput (req/s)",
             TextTable::num(unprotected.throughput, 1),
             TextTable::num(protected_run.throughput, 1)});
  t.add_row({"overloaded windows",
             TextTable::pct(unprotected.overloaded_windows, 0),
             TextTable::pct(protected_run.overloaded_windows, 0)});
  t.add_row({"requests shed", std::to_string(unprotected.rejected),
             std::to_string(protected_run.rejected)});
  t.add_note("the controller trades a slice of the surge for bounded "
             "latency — overload prevention per the paper's motivation");
  std::printf("%s\n", t.render().c_str());
  return 0;
}

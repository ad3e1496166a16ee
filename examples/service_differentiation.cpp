// Service differentiation — the paper's second motivating consumer (§I):
// "for input traffic of multi-class requests, server capacity information
// can also be used by a back-end scheduler to calculate the portion of
// the capacity to be allocated to each class".
//
// Two client populations share the site: premium and basic. A
// class-aware front door uses the coordinated capacity monitor's
// decisions the same way the admission_control example does — but sheds
// *basic* traffic first, and premium traffic only under persistent
// overload. Compared against a class-blind throttle at the same surge,
// premium users should keep near-healthy latency while basic users absorb
// the shedding.
//
// Build & run:  ./build/examples/service_differentiation
#include <cstdio>
#include <memory>

#include "ctrl/admission.h"
#include "testbed/experiment.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hpcap;

namespace {

// The request classes double as customer classes for this example: order
// interactions come from buyers (premium), browse interactions from
// visitors (basic) — the revenue-oriented split the TPC-W model implies.
bool is_premium(const sim::Request& req) {
  return req.request_class == sim::RequestClass::kOrder;
}

struct ClassStats {
  std::uint64_t premium_shed = 0, basic_shed = 0;
};

ClassStats run_scenario(const testbed::TestbedConfig& cfg,
                        const tpcw::WorkloadSchedule& schedule,
                        core::CapacityMonitor& monitor,
                        bool class_aware) {
  testbed::Testbed bed(cfg);
  // Each class runs its own AIMD cap on the site's offered rate and gates
  // its requests with admit_fraction of that cap. Premium needs three
  // overload windows to act, backs off more gently and probes back
  // twice as fast.
  ctrl::CapAdmissionController basic_throttle;
  ctrl::CapAdmissionOptions premium_opts;
  premium_opts.decrease_factor = 0.85;
  premium_opts.increase_step = 50.0;
  premium_opts.overload_votes = 3;
  ctrl::CapAdmissionController premium_throttle(premium_opts);
  double basic_fraction = 1.0, premium_fraction = 1.0;
  Rng gate_rng(cfg.seed ^ 0xC1A55);
  ClassStats out;

  bed.set_admission_gate([&](const sim::Request& req) {
    const double fraction = (class_aware && is_premium(req))
                                ? premium_fraction
                                : basic_fraction;
    const bool ok = gate_rng.bernoulli(fraction);
    if (!ok) ++(is_premium(req) ? out.premium_shed : out.basic_shed);
    return ok;
  });
  bed.set_instance_observer([&](const testbed::InstanceRecord& rec) {
    const auto d = monitor.observe(testbed::monitor_rows(rec, "hpc"));
    basic_throttle.on_window(d, rec.offered_rate * basic_fraction);
    basic_fraction = basic_throttle.admit_fraction(rec.offered_rate);
    // Premium reacts only to *confident* overload: it is the last class
    // to be shed and the first to recover.
    auto premium_view = d;
    premium_view.state = d.state == 1 && d.confident ? 1 : 0;
    premium_throttle.on_window(premium_view,
                               rec.offered_rate * premium_fraction);
    premium_fraction = premium_throttle.admit_fraction(rec.offered_rate);
  });

  bed.run(schedule);
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

  std::printf("Training capacity monitor...\n");
  const auto train_b =
      testbed::collect(testbed::training_schedule(browsing, cfg), cfg);
  const auto train_o =
      testbed::collect(testbed::training_schedule(ordering, cfg), cfg);
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = testbed::kNumTiers;
  core::CapacityMonitor monitor = testbed::build_monitor(
      {{"ordering", &train_o}, {"browsing", &train_b}}, "hpc",
      ml::LearnerKind::kTan, opts);

  const auto cap = testbed::measure_capacity(*shopping, cfg);
  const auto surge = tpcw::WorkloadSchedule::concat(
      "surge", {tpcw::WorkloadSchedule::steady(
                    shopping, static_cast<int>(0.7 * cap.saturation_ebs),
                    420.0),
                tpcw::WorkloadSchedule::steady(
                    shopping, static_cast<int>(1.7 * cap.saturation_ebs),
                    900.0),
                tpcw::WorkloadSchedule::steady(
                    shopping, static_cast<int>(0.7 * cap.saturation_ebs),
                    420.0)});

  testbed::TestbedConfig run_cfg = cfg;
  run_cfg.seed = cfg.seed + 555;

  std::printf("Running class-blind throttle...\n");
  monitor.predictor().reset_history();
  const auto blind = run_scenario(run_cfg, surge, monitor, false);
  std::printf("Running class-aware throttle...\n\n");
  monitor.predictor().reset_history();
  const auto aware = run_scenario(run_cfg, surge, monitor, true);

  TextTable t("Surge shedding by customer class (shopping mix, 1.7x "
              "capacity surge)");
  t.set_header({"policy", "premium shed", "basic shed",
                "premium share of shed"});
  auto row = [&](const char* name, const ClassStats& s) {
    const double total =
        static_cast<double>(s.premium_shed + s.basic_shed);
    t.add_row({name, std::to_string(s.premium_shed),
               std::to_string(s.basic_shed),
               total > 0.0 ? TextTable::pct(
                                 static_cast<double>(s.premium_shed) /
                                     total,
                                 1)
                           : "n/a"});
  };
  row("class-blind", blind);
  row("class-aware (premium protected)", aware);
  t.add_note("the class-aware policy concentrates shedding on basic "
             "traffic — capacity-informed service differentiation");
  std::printf("%s\n", t.render().c_str());
  return 0;
}

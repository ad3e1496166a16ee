// End-to-end shape tests: small-scale versions of the paper's headline
// results, asserted with tolerant thresholds so seeds can wiggle without
// breaking CI. These are the repo's guardrails against calibration
// regressions in the simulator or metric models.
#include <gtest/gtest.h>

#include <memory>

#include "core/online_adapt.h"
#include "core/productivity.h"
#include "core/synopsis.h"
#include "ctrl/admission.h"
#include "ml/evaluate.h"
#include "testbed/experiment.h"

namespace hpcap {
namespace {

using testbed::CollectedRun;
using testbed::TestbedConfig;

struct Fixture {
  TestbedConfig cfg = TestbedConfig::paper_defaults();
  std::shared_ptr<const tpcw::Mix> browsing =
      std::make_shared<const tpcw::Mix>(tpcw::browsing_mix());
  std::shared_ptr<const tpcw::Mix> ordering =
      std::make_shared<const tpcw::Mix>(tpcw::ordering_mix());
  CollectedRun train_browsing;
  CollectedRun train_ordering;
  CollectedRun test_browsing;
  CollectedRun test_ordering;

  Fixture() {
    train_browsing =
        testbed::collect(testbed::training_schedule(browsing, cfg), cfg);
    train_ordering =
        testbed::collect(testbed::training_schedule(ordering, cfg), cfg);
    TestbedConfig tcfg = cfg;
    tcfg.seed = cfg.seed + 101;
    test_browsing =
        testbed::collect(testbed::testing_schedule(browsing, tcfg), tcfg);
    test_ordering =
        testbed::collect(testbed::testing_schedule(ordering, tcfg), tcfg);
  }
};

// The fixture's runs take ~1 s to simulate; share them across tests.
const Fixture& fixture() {
  static const Fixture f;
  return f;
}

double synopsis_ba(const CollectedRun& train_run, int tier,
                   const std::string& level, const CollectedRun& test_run) {
  const auto& f = fixture();
  (void)f;
  core::SynopsisBuilder builder;
  const auto ds = testbed::make_dataset(train_run.instances, tier, level,
                                        train_run.labels);
  const auto syn = builder.build(
      ds, {"mix", tier == 0 ? "app" : "db", tier, level,
           ml::LearnerKind::kTan});
  ml::Confusion c;
  for (std::size_t i = 0; i < test_run.instances.size(); ++i) {
    const auto& grid = level == "hpc" ? test_run.instances[i].hpc
                                      : test_run.instances[i].os;
    c.add(test_run.labels[i],
          syn.predict(grid[static_cast<std::size_t>(tier)]));
  }
  return c.balanced_accuracy();
}

TEST(PaperShape, MatchedSynopsisBeatsMismatched) {
  const auto& f = fixture();
  // Browsing input: the browsing/DB synopsis must clearly beat both
  // ordering synopses (paper Table I(a), observation 1).
  const double matched =
      synopsis_ba(f.train_browsing, testbed::kDbTier, "hpc",
                  f.test_browsing);
  const double mism_app =
      synopsis_ba(f.train_ordering, testbed::kAppTier, "hpc",
                  f.test_browsing);
  const double mism_db =
      synopsis_ba(f.train_ordering, testbed::kDbTier, "hpc",
                  f.test_browsing);
  EXPECT_GT(matched, 0.75);
  EXPECT_GT(matched, mism_app + 0.15);
  EXPECT_GT(matched, mism_db + 0.15);
}

TEST(PaperShape, OrderingInputIsWellPredictedByAppSynopsis) {
  const auto& f = fixture();
  EXPECT_GT(synopsis_ba(f.train_ordering, testbed::kAppTier, "hpc",
                        f.test_ordering),
            0.9);
  EXPECT_GT(synopsis_ba(f.train_ordering, testbed::kAppTier, "os",
                        f.test_ordering),
            0.9);  // paper: OS metrics DO work for the ordering mix
}

TEST(PaperShape, HpcAtLeastMatchesOsOnBrowsingDb) {
  const auto& f = fixture();
  const double hpc = synopsis_ba(f.train_browsing, testbed::kDbTier, "hpc",
                                 f.test_browsing);
  const double os = synopsis_ba(f.train_browsing, testbed::kDbTier, "os",
                                f.test_browsing);
  EXPECT_GE(hpc + 0.03, os);  // direction per the paper, with slack
}

TEST(PaperShape, PiSelectionPicksBottleneckTier) {
  const auto& f = fixture();
  const auto stressed = testbed::stressed_series(
      f.train_ordering.instances, 0.85);
  ASSERT_GT(stressed.throughput.size(), 20u);
  const auto sel = core::select_pi(stressed.tier_hpc, stressed.throughput,
                                   core::standard_pi_candidates());
  EXPECT_EQ(sel.tier, testbed::kAppTier);  // ordering -> front end
  EXPECT_GT(sel.corr, 0.5);
}

TEST(PaperShape, CoordinatedMonitorOnInterleavedTraffic) {
  const auto& f = fixture();
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = testbed::kNumTiers;
  core::CapacityMonitor monitor = testbed::build_monitor(
      {{"ordering", &f.train_ordering}, {"browsing", &f.train_browsing}},
      "hpc", ml::LearnerKind::kTan, opts);

  TestbedConfig tcfg = f.cfg;
  tcfg.seed = f.cfg.seed + 999;
  const auto run = testbed::collect(
      testbed::interleaved_schedule(f.browsing, f.ordering, tcfg), tcfg);
  const auto bn =
      testbed::bottleneck_annotations(run.instances, run.labels);

  monitor.predictor().reset_history();
  ml::Confusion c;
  std::size_t bn_total = 0, bn_hit = 0;
  for (std::size_t i = 0; i < run.instances.size(); ++i) {
    const auto d =
        monitor.observe(testbed::monitor_rows(run.instances[i], "hpc"));
    c.add(run.labels[i], d.state);
    if (run.labels[i] == 1) {
      ++bn_total;
      bn_hit += d.state == 1 && d.bottleneck_tier == bn[i];
    }
  }
  // Paper: >85% under bottleneck shifting; we assert >0.75 with slack.
  EXPECT_GT(c.balanced_accuracy(), 0.75);
  ASSERT_GT(bn_total, 10u);
  EXPECT_GT(static_cast<double>(bn_hit) / static_cast<double>(bn_total),
            0.5);
}

TEST(PaperShape, CollectionOverheadOrdering) {
  // HPC collection must cost visibly less capacity than OS collection.
  const auto& f = fixture();
  const auto cap = testbed::measure_capacity(*f.ordering, f.cfg);
  const auto schedule = tpcw::WorkloadSchedule::steady(
      f.ordering, static_cast<int>(1.15 * cap.saturation_ebs), 600.0);
  auto run_with = [&](bool hpc, bool os) {
    TestbedConfig c = f.cfg;
    c.collect_hpc = hpc;
    c.collect_os = os;
    c.charge_collection_cost = true;
    testbed::Testbed bed(c);
    bed.run(schedule);
    RunningStats tput;
    for (const auto& rec : bed.instances())
      tput.add(rec.health.throughput);
    return tput.mean();
  };
  const double baseline = run_with(false, false);
  const double with_hpc = run_with(true, false);
  const double with_os = run_with(false, true);
  EXPECT_GT(with_hpc, baseline * 0.99);   // < 1% loss
  EXPECT_LT(with_os, baseline * 0.985);   // measurable loss
  EXPECT_GT(with_hpc, with_os);
}

TEST(OnlineAdapter, QueuesAndReinforcesInOrder) {
  const auto& f = fixture();
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = testbed::kNumTiers;
  core::CapacityMonitor monitor = testbed::build_monitor(
      {{"ordering", &f.train_ordering}, {"browsing", &f.train_browsing}},
      "hpc", ml::LearnerKind::kTan, opts);
  core::OnlineAdapter adapter(monitor);
  const auto rows = testbed::monitor_rows(f.test_ordering.instances[0],
                                          "hpc");
  (void)adapter.observe(rows);
  (void)adapter.observe(rows);
  EXPECT_EQ(adapter.pending(), 2u);
  adapter.report_truth(1, testbed::kAppTier);
  EXPECT_EQ(adapter.pending(), 1u);
  adapter.report_truth(0);
  adapter.report_truth(0);  // extra report is a no-op
  EXPECT_EQ(adapter.pending(), 0u);
}

TEST(PaperShape, AdmissionControlReducesOverload) {
  const auto& f = fixture();
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = testbed::kNumTiers;
  core::CapacityMonitor monitor = testbed::build_monitor(
      {{"ordering", &f.train_ordering}, {"browsing", &f.train_browsing}},
      "hpc", ml::LearnerKind::kTan, opts);

  const auto shopping =
      std::make_shared<const tpcw::Mix>(tpcw::shopping_mix());
  const auto cap = testbed::measure_capacity(*shopping, f.cfg);
  const auto surge = tpcw::WorkloadSchedule::steady(
      shopping, static_cast<int>(1.6 * cap.saturation_ebs), 900.0);

  auto overloaded_windows = [&](bool protect) {
    TestbedConfig c = f.cfg;
    c.seed = f.cfg.seed + 31;
    testbed::Testbed bed(c);
    ctrl::CapAdmissionController throttle;
    double fraction = 1.0;  // admit_fraction of the last window
    Rng gate_rng(9);
    if (protect) {
      monitor.predictor().reset_history();
      bed.set_admission_gate(
          [&](const sim::Request&) { return gate_rng.bernoulli(fraction); });
      bed.set_instance_observer([&](const testbed::InstanceRecord& rec) {
        throttle.on_window(monitor.observe(testbed::monitor_rows(rec, "hpc")),
                           rec.offered_rate * fraction);
        fraction = throttle.admit_fraction(rec.offered_rate);
      });
    }
    bed.run(surge);
    core::HealthLabeler labeler;
    int overloaded = 0;
    for (const auto& rec : bed.instances())
      overloaded += labeler.label(rec.health);
    return overloaded;
  };
  EXPECT_LT(overloaded_windows(true), overloaded_windows(false));
}

}  // namespace
}  // namespace hpcap

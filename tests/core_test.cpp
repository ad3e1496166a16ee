// Unit tests for the paper's core machinery: Productivity Index and Corr
// selection, labeling, the two-level coordinated predictor and synopses.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/coordinated.h"
#include "core/labeling.h"
#include "core/pipeline.h"
#include "core/productivity.h"
#include "core/synopsis.h"
#include "counters/metric_catalog.h"
#include "util/rng.h"

namespace hpcap::core {
namespace {

TEST(ProductivityIndex, ComputesYieldOverCost) {
  PiDefinition def{"test", 0, 1};
  const std::vector<double> m = {6.0, 2.0};
  EXPECT_DOUBLE_EQ(def.compute(m), 3.0);
}

TEST(ProductivityIndex, ZeroCostGuard) {
  PiDefinition def{"test", 0, 1};
  const std::vector<double> m = {6.0, 0.0};
  EXPECT_DOUBLE_EQ(def.compute(m), 0.0);
}

TEST(ProductivityIndex, StandardCandidatesAreValidHpcIndices) {
  for (const auto& def : standard_pi_candidates()) {
    EXPECT_LT(def.yield_index, counters::hpc_catalog().size());
    EXPECT_LT(def.cost_index, counters::hpc_catalog().size());
    EXPECT_FALSE(def.name.empty());
  }
}

TEST(ProductivityIndex, SeriesComputation) {
  PiDefinition def{"t", 0, 1};
  std::vector<std::vector<double>> samples = {{4.0, 2.0}, {9.0, 3.0}};
  const auto s = pi_series(samples, def);
  EXPECT_EQ(s, (std::vector<double>{2.0, 3.0}));
}

TEST(SelectPi, FindsPlantedCorrelation) {
  // Tier 1's PI (metric0/metric1) tracks the reference; tier 0 is noise.
  Rng rng(3);
  std::vector<std::vector<std::vector<double>>> tiers(2);
  std::vector<double> reference;
  for (int t = 0; t < 100; ++t) {
    const double ref = 50.0 + 30.0 * std::sin(t * 0.3);
    reference.push_back(ref);
    tiers[0].push_back({rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)});
    tiers[1].push_back({ref * 0.01 + rng.normal(0.0, 0.01), 1.0});
  }
  const std::vector<PiDefinition> candidates = {{"planted", 0, 1},
                                                {"reversed", 1, 0}};
  const auto sel = select_pi(tiers, reference, candidates);
  EXPECT_EQ(sel.tier, 1);
  EXPECT_EQ(sel.definition.name, "planted");
  EXPECT_GT(sel.corr, 0.9);
}

TEST(SelectPi, EmptyInputsThrow) {
  EXPECT_THROW(select_pi({}, std::vector<double>{},
                         standard_pi_candidates()),
               std::invalid_argument);
}

TEST(HealthLabeler, SlaViolationIsOverload) {
  HealthLabeler labeler;
  WindowHealth w;
  w.mean_response_time = 2.0;  // > default 1.5 s SLA
  w.throughput = 10.0;
  w.offered_rate = 10.0;
  EXPECT_EQ(labeler.label(w), 1);
}

TEST(HealthLabeler, FastWindowsAreHealthy) {
  HealthLabeler labeler;
  WindowHealth w;
  w.mean_response_time = 0.1;
  w.throughput = 50.0;
  w.offered_rate = 50.0;
  EXPECT_EQ(labeler.label(w), 0);
}

TEST(HealthLabeler, ThroughputCollapseUnderDemandIsOverload) {
  HealthLabeler labeler;
  WindowHealth peak;
  peak.mean_response_time = 0.1;
  peak.throughput = 100.0;
  peak.offered_rate = 100.0;
  labeler.label(peak);
  WindowHealth degraded;
  degraded.mean_response_time = 0.5;
  degraded.throughput = 60.0;   // far below peak...
  degraded.offered_rate = 90.0;  // ...while demand persists
  EXPECT_EQ(labeler.label(degraded), 1);
}

TEST(HealthLabeler, LowOfferedLoadIsNotOverload) {
  HealthLabeler labeler;
  WindowHealth peak;
  peak.mean_response_time = 0.1;
  peak.throughput = 100.0;
  peak.offered_rate = 100.0;
  labeler.label(peak);
  WindowHealth quiet;
  quiet.mean_response_time = 0.1;
  quiet.throughput = 20.0;  // low because demand is low
  quiet.offered_rate = 20.0;
  EXPECT_EQ(labeler.label(quiet), 0);
}

TEST(HealthLabeler, OverloadedWindowsDoNotRaisePeak) {
  HealthLabeler labeler;
  WindowHealth w;
  w.mean_response_time = 5.0;
  w.throughput = 500.0;
  w.offered_rate = 800.0;
  labeler.label(w);
  EXPECT_DOUBLE_EQ(labeler.peak_throughput(), 0.0);
}

TEST(FindKnee, LocatesSaturation) {
  std::vector<double> load, tput;
  for (int i = 1; i <= 10; ++i) {
    load.push_back(i * 10.0);
    tput.push_back(i <= 6 ? i * 10.0 : 60.0);  // flat after 60
  }
  EXPECT_EQ(find_knee(load, tput), 5u);
}

TEST(FindKnee, IgnoresSingleNoisyDip) {
  std::vector<double> load, tput;
  for (int i = 1; i <= 10; ++i) {
    load.push_back(i * 10.0);
    double v = i * 10.0;
    if (i == 4) v = 32.0;  // transient dip
    if (i > 7) v = 70.0;
    tput.push_back(v);
  }
  EXPECT_GT(find_knee(load, tput), 4u);
}

TEST(FindKnee, RequiresThreePoints) {
  EXPECT_THROW(find_knee(std::vector<double>{1.0, 2.0},
                         std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(PiThresholdLabeler, SeparatesCalibratedStates) {
  std::vector<double> pi;
  std::vector<int> labels;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const bool over = i % 2;
    pi.push_back(over ? rng.uniform(0.1, 0.4) : rng.uniform(0.8, 1.2));
    labels.push_back(over);
  }
  PiThresholdLabeler labeler(pi, labels);
  EXPECT_GT(labeler.threshold(), 0.3);
  EXPECT_LT(labeler.threshold(), 0.9);
  EXPECT_EQ(labeler.label(0.2), 1);
  EXPECT_EQ(labeler.label(1.0), 0);
}

TEST(PiThresholdLabeler, SingleClassCalibrationThrows) {
  const std::vector<double> pi = {1.0, 2.0};
  const std::vector<int> labels = {0, 0};
  EXPECT_THROW(PiThresholdLabeler(pi, labels), std::invalid_argument);
}

CoordinatedPredictor::Options small_options() {
  CoordinatedPredictor::Options opts;
  opts.num_synopses = 2;
  opts.num_tiers = 2;
  opts.history_bits = 2;
  opts.delta = 1;
  opts.synopsis_tiers = {0, 1};
  return opts;
}

TEST(Coordinated, OptionValidation) {
  auto opts = small_options();
  opts.num_synopses = 0;
  EXPECT_THROW(CoordinatedPredictor{opts}, std::invalid_argument);
  opts = small_options();
  opts.num_synopses = 17;
  EXPECT_THROW(CoordinatedPredictor{opts}, std::invalid_argument);
  opts = small_options();
  opts.history_bits = 13;
  EXPECT_THROW(CoordinatedPredictor{opts}, std::invalid_argument);
  opts = small_options();
  opts.delta = -1;
  EXPECT_THROW(CoordinatedPredictor{opts}, std::invalid_argument);
}

TEST(Coordinated, TableDimensions) {
  CoordinatedPredictor p(small_options());
  EXPECT_EQ(p.gpt_size(), 4u);   // 2^2 GPV patterns
  EXPECT_EQ(p.lht_size(), 4u);   // 2^2 histories
}

TEST(Coordinated, PackGpv) {
  EXPECT_EQ(CoordinatedPredictor::pack_gpv({0, 0}), 0u);
  EXPECT_EQ(CoordinatedPredictor::pack_gpv({1, 0}), 1u);
  EXPECT_EQ(CoordinatedPredictor::pack_gpv({0, 1}), 2u);
  EXPECT_EQ(CoordinatedPredictor::pack_gpv({1, 1, 1, 1}), 15u);
}

TEST(Coordinated, LearnsConsistentPattern) {
  auto opts = small_options();
  opts.history_bits = 0;  // pure GPT lookup for this test
  CoordinatedPredictor p(opts);
  for (int i = 0; i < 20; ++i) {
    p.train({1, 1}, 1, 1);
    p.train({0, 0}, 0, -1);
  }
  p.reset_history();
  EXPECT_EQ(p.predict({1, 1}).state, 1);
  EXPECT_EQ(p.predict({0, 0}).state, 0);
}

TEST(Coordinated, HcSaturates) {
  auto opts = small_options();
  opts.history_bits = 0;
  opts.hc_saturation = 3;
  opts.history_source = HistorySource::kSynopsisAny;
  CoordinatedPredictor p(opts);
  for (int i = 0; i < 100; ++i) p.train({1, 1}, 1, 0);
  EXPECT_EQ(p.hc(3, 0), 3);
  for (int i = 0; i < 100; ++i) p.train({1, 1}, 0, -1);
  EXPECT_EQ(p.hc(3, 0), -3);
}

TEST(Coordinated, DeltaBandUsesTieScheme) {
  auto optimistic = small_options();
  optimistic.delta = 5;
  optimistic.unseen = UnseenCellPolicy::kTieScheme;
  CoordinatedPredictor p_opt(optimistic);
  // Two trainings: |Hc| = 2 <= delta, so the band applies.
  p_opt.train({1, 1}, 1, 0);
  p_opt.train({1, 1}, 1, 0);
  p_opt.reset_history();
  EXPECT_EQ(p_opt.predict({1, 1}).state, 0);  // optimistic -> underload
  EXPECT_FALSE(p_opt.predict({1, 1}).confident);

  auto pessimistic = optimistic;
  pessimistic.scheme = TieScheme::kPessimistic;
  CoordinatedPredictor p_pes(pessimistic);
  p_pes.train({1, 1}, 1, 0);
  p_pes.train({1, 1}, 1, 0);
  p_pes.reset_history();
  EXPECT_EQ(p_pes.predict({1, 1}).state, 1);  // pessimistic -> overload
}

TEST(Coordinated, BottleneckVotesFollowAnnotations) {
  auto opts = small_options();
  opts.history_bits = 0;
  CoordinatedPredictor p(opts);
  for (int i = 0; i < 10; ++i) p.train({1, 1}, 1, 1);
  p.reset_history();
  const auto d = p.predict({1, 1});
  ASSERT_EQ(d.state, 1);
  EXPECT_EQ(d.bottleneck_tier, 1);
  const auto& bv = p.bottleneck_votes(3);
  EXPECT_GT(bv[1], bv[0]);
}

TEST(Coordinated, BottleneckOnlyReportedWhenOverloaded) {
  CoordinatedPredictor p(small_options());
  for (int i = 0; i < 10; ++i) p.train({0, 0}, 0, -1);
  p.reset_history();
  const auto d = p.predict({0, 0});
  EXPECT_EQ(d.state, 0);
  EXPECT_EQ(d.bottleneck_tier, -1);
}

TEST(Coordinated, UnseenCellMajorityFallback) {
  auto opts = small_options();
  opts.num_synopses = 3;
  opts.synopsis_tiers = {0, 1, 1};
  opts.unseen = UnseenCellPolicy::kMajorityVote;
  CoordinatedPredictor p(opts);
  // No training at all: majority of votes decides.
  EXPECT_EQ(p.predict({1, 1, 1}).state, 1);
  p.reset_history();
  EXPECT_EQ(p.predict({0, 0, 1}).state, 0);
}

TEST(Coordinated, UnseenCellBottleneckFromVoteTiers) {
  auto opts = small_options();
  opts.num_synopses = 3;
  opts.synopsis_tiers = {0, 1, 1};
  CoordinatedPredictor p(opts);
  const auto d = p.predict({0, 1, 1});
  ASSERT_EQ(d.state, 1);
  EXPECT_EQ(d.bottleneck_tier, 1);
}

TEST(Coordinated, GlobalBottleneckFallback) {
  auto opts = small_options();
  opts.unseen = UnseenCellPolicy::kTieScheme;
  opts.scheme = TieScheme::kPessimistic;
  opts.delta = 0;
  CoordinatedPredictor p(opts);
  // Train bottleneck tier 1 heavily under one GPV...
  for (int i = 0; i < 10; ++i) p.train({0, 1}, 1, 1);
  p.reset_history();
  // ...then hit a different GPV with no votes and no BV: global fallback.
  const auto d = p.predict({0, 0});
  if (d.state == 1) {
    EXPECT_EQ(d.bottleneck_tier, 1);
  }
}

TEST(Coordinated, HistoryDistinguishesTemporalPatterns) {
  // Same GPV, different recent history, different outcome: an isolated
  // alarm is a false positive; a sustained one is real overload.
  auto opts = small_options();
  opts.num_synopses = 1;
  opts.synopsis_tiers = {0};
  opts.history_bits = 1;
  opts.delta = 0;
  opts.history_source = HistorySource::kSynopsisAny;
  CoordinatedPredictor p(opts);
  for (int i = 0; i < 30; ++i) {
    // Pattern: quiet, isolated false alarm, quiet, storm of real alarms.
    p.train({0}, 0);
    p.train({1}, 0);  // isolated fire after quiet -> actually healthy
    p.train({0}, 0);
    p.train({1}, 1);  // fire after quiet... begins an episode
    p.train({1}, 1);  // fire after fire -> overloaded
    p.train({1}, 1);
  }
  p.reset_history();
  (void)p.predict({0});   // history: 0
  (void)p.predict({1});   // isolated fire, history now 1
  const auto sustained = p.predict({1});  // fire after fire
  EXPECT_EQ(sustained.state, 1);
}

TEST(Coordinated, WrongGpvWidthThrows) {
  CoordinatedPredictor p(small_options());
  EXPECT_THROW(p.train({1}, 1), std::invalid_argument);
  EXPECT_THROW(p.predict({1, 1, 1}), std::invalid_argument);
}

ml::Dataset separable_dataset() {
  ml::Dataset d({"m0", "m1", "m2"});
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const int y = i % 2;
    d.add({y + rng.normal(0.0, 0.2), rng.uniform(), rng.uniform()}, y);
  }
  return d;
}

TEST(Synopsis, BuilderSelectsInformativeAttribute) {
  SynopsisBuilder builder;
  const Synopsis syn = builder.build(
      separable_dataset(), {"mix", "app", 0, "hpc", ml::LearnerKind::kTan});
  ASSERT_FALSE(syn.attributes().empty());
  EXPECT_EQ(syn.attributes()[0], 0u);
  EXPECT_EQ(syn.id(), "mix/app/hpc/TAN");
}

TEST(Synopsis, PredictsFromFullWidthRows) {
  SynopsisBuilder builder;
  const Synopsis syn = builder.build(
      separable_dataset(), {"mix", "db", 1, "hpc", ml::LearnerKind::kTan});
  EXPECT_EQ(syn.predict(std::vector<double>{1.0, 0.5, 0.5}), 1);
  EXPECT_EQ(syn.predict(std::vector<double>{0.0, 0.5, 0.5}), 0);
}

TEST(Synopsis, SingleClassTrainingThrows) {
  ml::Dataset d({"a"});
  d.add({1.0}, 0);
  d.add({2.0}, 0);
  SynopsisBuilder builder;
  EXPECT_THROW(
      builder.build(d, {"m", "app", 0, "hpc", ml::LearnerKind::kTan}),
      std::invalid_argument);
}

TEST(CapacityMonitor, VotesFollowSynopsisTiers) {
  SynopsisBuilder builder;
  std::vector<Synopsis> synopses;
  synopses.push_back(builder.build(
      separable_dataset(), {"mix", "app", 0, "hpc", ml::LearnerKind::kTan}));
  synopses.push_back(builder.build(
      separable_dataset(), {"mix", "db", 1, "hpc", ml::LearnerKind::kTan}));
  CoordinatedPredictor::Options opts;
  opts.num_tiers = 2;
  CapacityMonitor monitor(std::move(synopses), opts);
  // Tier 0 overloaded, tier 1 healthy.
  const std::vector<std::vector<double>> rows = {{1.0, 0.5, 0.5},
                                                 {0.0, 0.5, 0.5}};
  EXPECT_EQ(monitor.synopsis_votes(rows), (std::vector<int>{1, 0}));
}

TEST(CapacityMonitor, RequiresSynopses) {
  EXPECT_THROW(CapacityMonitor({}, CoordinatedPredictor::Options{}),
               std::invalid_argument);
}

TEST(CapacityMonitor, MissingTierRowThrows) {
  SynopsisBuilder builder;
  std::vector<Synopsis> synopses;
  synopses.push_back(builder.build(
      separable_dataset(), {"mix", "db", 1, "hpc", ml::LearnerKind::kTan}));
  CapacityMonitor monitor(std::move(synopses),
                          CoordinatedPredictor::Options{});
  EXPECT_THROW(monitor.synopsis_votes({{1.0, 0.5, 0.5}}),
               std::out_of_range);
}

}  // namespace
}  // namespace hpcap::core

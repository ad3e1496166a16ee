// Microbenchmarks (google-benchmark) for the hot paths of the library:
// simulator event throughput, metric synthesis, learner training, the
// parallel ML training path (cross-validation, synopsis bank), the
// per-window online decision and the wire frame checksum. The online
// numbers put hard bounds on the paper's "no more than 50 ms for each
// on-line decision" claim for this implementation.
//
// Usage: bench_micro [--threads N] [google-benchmark flags]
//   --threads N caps the util/parallel pool (default: hardware threads);
//   the parallel benchmarks report their numbers under that cap.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "core/synopsis.h"
#include "counters/hpc_model.h"
#include "counters/os_model.h"
#include "ml/classifier.h"
#include "ml/discretize.h"
#include "ml/evaluate.h"
#include "ml/svm.h"
#include "ml/tan.h"
#include "net/protocol.h"
#include "sim/event_queue.h"
#include "sim/tier.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace hpcap;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue eq;
    for (int i = 0; i < 1000; ++i)
      eq.schedule_at(static_cast<double>(i % 97), [] {});
    eq.run_all();
    benchmark::DoNotOptimize(eq.executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_TierProcessorSharing(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue eq;
    sim::Tier tier(eq, sim::Tier::Config{});
    for (int i = 0; i < jobs; ++i)
      tier.execute(0.01 * (1 + i % 7), sim::Tier::JobTag{}, [] {});
    eq.run_all();
    benchmark::DoNotOptimize(tier.active_jobs());
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_TierProcessorSharing)->Arg(16)->Arg(128)->Arg(1024);

sim::Tier::IntervalStats micro_stats() {
  sim::Tier::IntervalStats s;
  s.duration = 1.0;
  s.busy_time = 0.9;
  s.core_busy_seconds = 1.7;
  s.instr_done = 2.5e9;
  s.stall_core_seconds = 0.4;
  s.active_integral = 6.0;
  s.thread_integral = 30.0;
  s.footprint_integral = 250.0;
  s.completions = 45;
  s.job_starts = 45;
  return s;
}

void BM_HpcSynthesis(benchmark::State& state) {
  counters::HpcModel model(sim::Tier::Config{}, {}, 1);
  const auto stats = micro_stats();
  for (auto _ : state) benchmark::DoNotOptimize(model.synthesize(stats));
}
BENCHMARK(BM_HpcSynthesis);

void BM_OsSynthesis(benchmark::State& state) {
  counters::OsModel model(sim::Tier::Config{}, {}, 1);
  const auto stats = micro_stats();
  counters::OsGauges gauges;
  gauges.runnable_now = 6;
  gauges.threads_now = 30;
  for (auto _ : state)
    benchmark::DoNotOptimize(model.synthesize(stats, gauges));
}
BENCHMARK(BM_OsSynthesis);

ml::Dataset learner_data(int n) {
  Rng rng(5);
  ml::Dataset d({"a", "b", "c", "d", "e", "f"});
  for (int i = 0; i < n; ++i) {
    const int y = i % 2;
    std::vector<double> row;
    for (int a = 0; a < 6; ++a)
      row.push_back(0.4 * y * (a % 3 == 0) + rng.normal(0.0, 0.5));
    d.add(std::move(row), y);
  }
  return d;
}

void BM_LearnerFit(benchmark::State& state) {
  const auto kind = static_cast<ml::LearnerKind>(state.range(0));
  const ml::Dataset d = learner_data(200);
  for (auto _ : state) {
    auto clf = ml::make_learner(kind);
    clf->fit(d);
    benchmark::DoNotOptimize(clf->fitted());
  }
  state.SetLabel(ml::learner_name(kind));
}
BENCHMARK(BM_LearnerFit)
    ->Arg(static_cast<int>(ml::LearnerKind::kLinearRegression))
    ->Arg(static_cast<int>(ml::LearnerKind::kNaiveBayes))
    ->Arg(static_cast<int>(ml::LearnerKind::kSvm))
    ->Arg(static_cast<int>(ml::LearnerKind::kTan));

void BM_LearnerPredict(benchmark::State& state) {
  const auto kind = static_cast<ml::LearnerKind>(state.range(0));
  auto clf = ml::make_learner(kind);
  clf->fit(learner_data(200));
  const std::vector<double> x = {0.2, -0.1, 0.4, 0.0, 0.3, -0.2};
  for (auto _ : state) benchmark::DoNotOptimize(clf->predict_score(x));
  state.SetLabel(ml::learner_name(kind));
}
BENCHMARK(BM_LearnerPredict)
    ->Arg(static_cast<int>(ml::LearnerKind::kLinearRegression))
    ->Arg(static_cast<int>(ml::LearnerKind::kNaiveBayes))
    ->Arg(static_cast<int>(ml::LearnerKind::kSvm))
    ->Arg(static_cast<int>(ml::LearnerKind::kTan));

void BM_SvmFitScale(benchmark::State& state) {
  // SMO training cost vs. n — the error cache keeps per-accepted-update
  // work at O(n), and the banded kernel fill uses the pool under the
  // --threads cap, so this is the headline number for the trainer rewrite.
  const ml::Dataset d = learner_data(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ml::Svm svm;
    svm.fit(d);
    benchmark::DoNotOptimize(svm.support_vector_count());
  }
  state.SetLabel("n=" + std::to_string(state.range(0)) +
                 " threads=" + std::to_string(util::max_threads()));
}
BENCHMARK(BM_SvmFitScale)
    ->Arg(200)
    ->Arg(400)
    ->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_DiscretizerBin(benchmark::State& state) {
  // One full-row discretization — the branch-light binary search over the
  // flat per-attribute cut arrays that every NB/TAN prediction performs.
  const ml::Dataset d = learner_data(400);
  const ml::Discretizer disc = ml::Discretizer::mdl_with_fallback(d);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto row = d.row(i++ % d.size());
    std::size_t acc = 0;
    for (std::size_t a = 0; a < d.dim(); ++a) acc += disc.bin_of(a, row[a]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(d.dim()));
}
BENCHMARK(BM_DiscretizerBin);

void BM_DatasetProject(benchmark::State& state) {
  const ml::Dataset d = learner_data(1000);
  const std::vector<std::size_t> attrs = {0, 2, 4};
  for (auto _ : state) benchmark::DoNotOptimize(d.project(attrs));
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DatasetProject);

void BM_CrossValidate(benchmark::State& state) {
  // 10-fold TAN CV — the inner loop of forward selection; folds run on
  // the util/parallel pool under the --threads cap.
  const ml::Dataset d = learner_data(400);
  for (auto _ : state) {
    Rng rng(31);
    benchmark::DoNotOptimize(
        ml::cross_validate(ml::Tan(), d, 10, rng).confusion.total());
  }
  state.SetLabel("threads=" + std::to_string(util::max_threads()));
}
BENCHMARK(BM_CrossValidate)->Unit(benchmark::kMillisecond);

void BM_SynopsisBankBuild(benchmark::State& state) {
  // Four (tier, builder) synopsis constructions — the offline pipeline's
  // dominant compute — distributed over the pool.
  const ml::Dataset d = learner_data(200);
  core::SynopsisBuilder builder;
  for (auto _ : state) {
    std::vector<core::SynopsisTask> tasks;
    for (int i = 0; i < 4; ++i)
      tasks.push_back({d,
                       {"mix", i % 2 ? "db" : "app", i % 2, "hpc",
                        ml::LearnerKind::kTan}});
    const auto bank = core::build_synopsis_bank(builder, std::move(tasks));
    benchmark::DoNotOptimize(bank.size());
  }
  state.SetLabel("threads=" + std::to_string(util::max_threads()));
}
BENCHMARK(BM_SynopsisBankBuild)->Unit(benchmark::kMillisecond);

void BM_CoordinatedDecision(benchmark::State& state) {
  // A 4-synopsis monitor, the paper's configuration: the "on-line
  // decision" cost (per 30 s window) end to end minus metric collection.
  core::SynopsisBuilder builder;
  std::vector<core::Synopsis> synopses;
  const ml::Dataset d = learner_data(200);
  for (int i = 0; i < 4; ++i)
    synopses.push_back(builder.build(
        d, {"mix", i % 2 ? "db" : "app", i % 2, "hpc",
            ml::LearnerKind::kTan}));
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = 2;
  core::CapacityMonitor monitor(std::move(synopses), opts);
  const std::vector<std::vector<double>> rows = {
      {0.2, -0.1, 0.4, 0.0, 0.3, -0.2}, {0.5, 0.1, -0.4, 0.2, 0.1, 0.0}};
  for (int i = 0; i < 50; ++i) monitor.train_instance(rows, i % 2, i % 2);
  for (auto _ : state) benchmark::DoNotOptimize(monitor.observe(rows));
}
BENCHMARK(BM_CoordinatedDecision);

void BM_ObserveMany(benchmark::State& state) {
  // The batched observe path over the same 4-synopsis monitor: one
  // observe_many call per `batch` windows through a contiguous row-major
  // WindowBlock. Arg(1) prices the batched entry point's fixed overhead
  // against BM_CoordinatedDecision; the sweep shows where amortization of
  // the cut search and table walks saturates. items = per-tier samples,
  // so the reported rate inverts to ns/sample.
  const auto batch = static_cast<std::size_t>(state.range(0));
  core::SynopsisBuilder builder;
  std::vector<core::Synopsis> synopses;
  const ml::Dataset d = learner_data(200);
  for (int i = 0; i < 4; ++i)
    synopses.push_back(builder.build(
        d, {"mix", i % 2 ? "db" : "app", i % 2, "hpc",
            ml::LearnerKind::kTan}));
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = 2;
  core::CapacityMonitor monitor(std::move(synopses), opts);
  const std::vector<std::vector<double>> rows = {
      {0.2, -0.1, 0.4, 0.0, 0.3, -0.2}, {0.5, 0.1, -0.4, 0.2, 0.1, 0.0}};
  for (int i = 0; i < 50; ++i) monitor.train_instance(rows, i % 2, i % 2);
  Rng rng(9);
  std::vector<double> block_rows;
  block_rows.reserve(batch * 2 * 6);
  for (std::size_t w = 0; w < batch; ++w)
    for (const auto& base : rows)
      for (const double v : base)
        block_rows.push_back(v + rng.normal(0.0, 0.05));
  const core::WindowBlock block{block_rows.data(), batch, 2, 6};
  std::vector<core::CoordinatedPredictor::Decision> out(batch);
  for (auto _ : state) {
    monitor.observe_many(block, std::span(out.data(), batch));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch) * 2);
  state.SetLabel("batch=" + std::to_string(batch));
}
BENCHMARK(BM_ObserveMany)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_CoordinatedDecisionMasked(benchmark::State& state) {
  // Degraded-mode observe with one tier's row invalidated: GPV masking
  // enumerates the unknown bits' completions through the flat tables.
  core::SynopsisBuilder builder;
  std::vector<core::Synopsis> synopses;
  const ml::Dataset d = learner_data(200);
  for (int i = 0; i < 4; ++i)
    synopses.push_back(builder.build(
        d, {"mix", i % 2 ? "db" : "app", i % 2, "hpc",
            ml::LearnerKind::kTan}));
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = 2;
  core::CapacityMonitor monitor(std::move(synopses), opts);
  const std::vector<std::vector<double>> rows = {
      {0.2, -0.1, 0.4, 0.0, 0.3, -0.2}, {0.5, 0.1, -0.4, 0.2, 0.1, 0.0}};
  for (int i = 0; i < 50; ++i) monitor.train_instance(rows, i % 2, i % 2);
  const std::vector<std::uint8_t> valid = {1, 0};
  for (auto _ : state)
    benchmark::DoNotOptimize(monitor.observe_masked(rows, valid));
}
BENCHMARK(BM_CoordinatedDecisionMasked);

void BM_Crc32(benchmark::State& state) {
  // The v2 frame checksum over a frame body (header + payload, before its
  // trailer). Arg 0: a 36-byte DECISION frame (32 B checksummed); Arg
  // N > 0: an N-tick SAMPLE_BATCH at 2 tiers x 20 metrics (1 tick: 354 B,
  // 64 ticks: 21018 B).
  const auto ticks = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> frame;
  if (ticks == 0) {
    frame = net::encode_decision(net::DecisionFrame{});
  } else {
    net::SampleBatch batch;
    batch.batch_seq = 1;
    batch.ticks.resize(ticks);
    for (auto& tick : batch.ticks)
      tick.tiers.assign(2, net::TierSlot{true, std::vector<double>(20, 0.5)});
    frame = net::encode_sample_batch(batch);
  }
  const std::span<const std::uint8_t> body(frame.data(),
                                           frame.size() - net::kCrcSize);
  for (auto _ : state) benchmark::DoNotOptimize(net::crc32(body));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
  state.SetLabel(std::to_string(body.size()) + " B");
}
BENCHMARK(BM_Crc32)->Arg(0)->Arg(1)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  // Strip --threads N before google-benchmark sees (and rejects) it.
  std::size_t threads = hpcap::util::hardware_threads();
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    else
      args.push_back(argv[i]);
  }
  hpcap::util::set_max_threads(threads ? threads : 1);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

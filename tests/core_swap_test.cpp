// core::MonitorSource under concurrent use — the RELOAD/SIGHUP data
// structure that lets the daemon swap models while sessions keep
// instantiating and observing.
//
// Runs under the tsan label: instantiate()/version()/bytes() race against
// swap_bytes()/swap_from_file() from multiple threads, and every monitor
// handed out must be a coherent parse of exactly one published bundle
// (never a torn mix of two generations).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/monitor_source.h"
#include "core/pipeline.h"
#include "util/rng.h"

namespace hpcap {
namespace {

ml::Dataset tiny_dataset(std::uint64_t seed, double separation) {
  ml::Dataset d({"a", "b", "c", "d"});
  Rng rng(seed);
  for (int i = 0; i < 80; ++i) {
    const int y = i % 2;
    d.add({y * separation + rng.normal(0.0, 0.2), rng.uniform(),
           y * separation + rng.normal(0.0, 0.3), rng.uniform()},
          y);
  }
  return d;
}

// Two distinguishable bundles: they differ in training data (and thus in
// serialized bytes), so a reader can tell which generation it parsed.
std::string make_bundle(std::uint64_t seed, double separation) {
  core::SynopsisBuilder builder;
  std::vector<core::Synopsis> synopses;
  synopses.push_back(builder.build(
      tiny_dataset(seed, separation),
      {"mix", "app", 0, "hpc", ml::LearnerKind::kNaiveBayes}));
  synopses.push_back(builder.build(
      tiny_dataset(seed + 1, separation),
      {"mix", "db", 1, "hpc", ml::LearnerKind::kNaiveBayes}));
  core::CoordinatedPredictor::Options opts;
  opts.num_tiers = 2;
  opts.synopsis_tiers = {0, 1};
  core::CapacityMonitor monitor(std::move(synopses), opts);
  Rng rng(seed + 7);
  std::vector<std::vector<double>> rows(2, std::vector<double>(4));
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    for (auto& r : rows) {
      r = {label * separation + rng.normal(0.0, 0.2), rng.uniform(),
           label * separation + rng.normal(0.0, 0.3), rng.uniform()};
    }
    monitor.train_instance(rows, label, label ? 1 : -1);
  }
  monitor.end_training_run();
  std::ostringstream os;
  core::save_monitor(os, monitor);
  return os.str();
}

const std::string& bundle_one() {
  static const std::string b = make_bundle(11, 1.0);
  return b;
}
const std::string& bundle_two() {
  static const std::string b = make_bundle(23, 2.0);
  return b;
}

TEST(MonitorSource, VersionStartsAtOneAndBumpsPerSwap) {
  auto source = core::MonitorSource::from_bytes(bundle_one());
  EXPECT_EQ(source.version(), 1u);
  source.swap_bytes(bundle_two());
  EXPECT_EQ(source.version(), 2u);
  source.swap_bytes(bundle_one());
  EXPECT_EQ(source.version(), 3u);
}

core::CapacityMonitor load_bundle(const std::string& bytes) {
  std::istringstream is(bytes);
  return core::load_monitor(is);
}

std::string save_bundle(const core::CapacityMonitor& monitor) {
  std::ostringstream os;
  core::save_monitor(os, monitor);
  return os.str();
}

// The first instantiate() hands out the parse that validated the bundle
// instead of parsing again; it must be indistinguishable from a fresh
// load_monitor, decision by decision, and so must every later parse.
TEST(MonitorSource, KeptParseDecidesLikeAFreshLoad) {
  const auto source = core::MonitorSource::from_bytes(bundle_one());
  core::CapacityMonitor kept = source.instantiate();
  core::CapacityMonitor reparsed = source.instantiate();
  core::CapacityMonitor fresh = load_bundle(bundle_one());
  EXPECT_EQ(save_bundle(kept), bundle_one());
  Rng rng(5);
  std::vector<std::vector<double>> rows(2, std::vector<double>(4));
  for (int i = 0; i < 200; ++i) {
    const double level = (i / 7) % 2 ? 1.0 : 0.0;
    for (auto& row : rows)
      row = {level + rng.normal(0.0, 0.4), rng.uniform(),
             level + rng.normal(0.0, 0.5), rng.uniform()};
    const auto want = fresh.observe(rows);
    for (core::CapacityMonitor* m : {&kept, &reparsed}) {
      const auto got = m->observe(rows);
      ASSERT_EQ(got.state, want.state) << "window " << i;
      ASSERT_EQ(got.confident, want.confident) << "window " << i;
      ASSERT_EQ(got.hc, want.hc) << "window " << i;
      ASSERT_EQ(got.bottleneck_tier, want.bottleneck_tier) << "window " << i;
    }
  }
}

// A swap replaces the kept parse together with the bytes: the next
// instantiate() must build the new model, never the stale kept one.
TEST(MonitorSource, SwapReplacesTheKeptParse) {
  auto source = core::MonitorSource::from_bytes(bundle_one());
  source.swap_bytes(bundle_two());
  EXPECT_EQ(save_bundle(source.instantiate()), bundle_two());
  EXPECT_EQ(save_bundle(source.instantiate()), bundle_two());

  const std::string path = "monitor_source_kept_parse.tmp";
  {
    std::ofstream f(path);
    f << bundle_two();
  }
  auto from_file = core::MonitorSource::from_bytes(bundle_one());
  from_file.swap_from_file(path);
  EXPECT_EQ(save_bundle(from_file.instantiate()), bundle_two());
  std::remove(path.c_str());

  // A failed swap keeps the current bytes and their kept parse.
  auto failed = core::MonitorSource::from_bytes(bundle_two());
  EXPECT_THROW(failed.swap_bytes("garbage"), std::runtime_error);
  EXPECT_EQ(save_bundle(failed.instantiate()), bundle_two());
}

TEST(MonitorSource, CorruptSwapThrowsAndKeepsCurrentModel) {
  auto source = core::MonitorSource::from_bytes(bundle_one());
  const auto before = source.bytes();
  EXPECT_THROW(source.swap_bytes("hpcap-monitor v1 99 junk"), std::runtime_error);
  EXPECT_THROW(source.swap_bytes(bundle_one().substr(0, 40)), std::runtime_error);
  EXPECT_THROW(source.swap_bytes(""), std::runtime_error);
  EXPECT_EQ(source.version(), 1u);
  EXPECT_EQ(*source.bytes(), *before);
  // Still instantiates fine after the failed swaps.
  auto monitor = source.instantiate();
  EXPECT_EQ(monitor.synopses().size(), 2u);
}

TEST(MonitorSource, FileRoundTripAndPathlessReload) {
  const std::string path = "monitor_source_test_bundle.tmp";
  {
    std::ofstream f(path);
    f << bundle_one();
  }
  auto source = core::MonitorSource::from_file(path);
  EXPECT_EQ(source.path(), path);
  EXPECT_EQ(*source.bytes(), bundle_one());

  // Rewrite the file, then a path-less swap re-reads the original path —
  // the SIGHUP contract.
  {
    std::ofstream f(path);
    f << bundle_two();
  }
  source.swap_from_file();
  EXPECT_EQ(source.version(), 2u);
  EXPECT_EQ(*source.bytes(), bundle_two());

  // A bad file on disk fails the swap without touching the live model.
  {
    std::ofstream f(path);
    f << "not a model";
  }
  EXPECT_THROW(source.swap_from_file(), std::runtime_error);
  EXPECT_EQ(source.version(), 2u);
  EXPECT_EQ(*source.bytes(), bundle_two());
  EXPECT_THROW(core::MonitorSource::from_file("no/such/file.model"),
               std::runtime_error);
  std::remove(path.c_str());
}

// Regression: path() used to return `const std::string&` with no lock
// while swap_from_file(path) republished path_ under the lock — a data
// race on the string buffer (TSAN flags it; a reader could also observe
// a torn/freed buffer). path() now copies under the lock. Found by the
// GUARDED_BY annotation pass.
TEST(MonitorSource, PathReadRacesSwapFromFile) {
  const std::string path_a = "monitor_source_path_race_a.tmp";
  const std::string path_b = "monitor_source_path_race_b_longer.tmp";
  {
    std::ofstream f(path_a);
    f << bundle_one();
  }
  {
    std::ofstream f(path_b);
    f << bundle_two();
  }
  auto source = core::MonitorSource::from_file(path_a);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const std::string p = source.path();
      ASSERT_TRUE(p == path_a || p == path_b) << p;
    }
  });
  for (int i = 0; i < 200; ++i)
    source.swap_from_file(i % 2 ? path_a : path_b);
  stop.store(true);
  reader.join();
  EXPECT_EQ(source.path(), path_a);  // last swap was i = 199
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// The tsan centerpiece: swappers republish alternating bundles while
// reader threads continuously instantiate monitors and run observations.
// Every instantiate() must parse a coherent snapshot; bytes() must always
// be one of the two published bundles.
TEST(MonitorSource, ConcurrentInstantiateAndSwapIsCoherent) {
  auto source = core::MonitorSource::from_bytes(bundle_one());
  std::atomic<bool> stop{false};
  std::atomic<int> parsed{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<std::uint64_t>(r));
      std::vector<std::vector<double>> rows(2, std::vector<double>(4));
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = source.bytes();
        if (*snapshot != bundle_one() && *snapshot != bundle_two()) {
          failed = true;
          break;
        }
        auto monitor = source.instantiate();
        if (monitor.synopses().size() != 2) {
          failed = true;
          break;
        }
        for (int i = 0; i < 4; ++i) {
          const int level = i % 2;
          for (auto& row : rows) {
            row = {level + rng.normal(0.0, 0.2), rng.uniform(),
                   level + rng.normal(0.0, 0.3), rng.uniform()};
          }
          (void)monitor.observe(rows);
        }
        parsed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread swapper([&] {
    for (int i = 0; i < 50; ++i) {
      source.swap_bytes(i % 2 ? bundle_one() : bundle_two());
      if (i % 10 == 0) {
        EXPECT_THROW(source.swap_bytes("garbage"), std::runtime_error);
      }
    }
  });
  swapper.join();
  // Let readers observe the final generation, then stop them.
  while (parsed.load(std::memory_order_relaxed) < 20 && !failed.load())
    std::this_thread::yield();
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_FALSE(failed.load()) << "reader saw a torn or unknown bundle";
  EXPECT_EQ(source.version(), 51u);  // 1 + 50 successful swaps
  EXPECT_GE(parsed.load(), 20);
}

}  // namespace
}  // namespace hpcap

// Batched observation must be a pure performance optimization: for every
// stream — clean, masked, stale-fallback, fault-injected — feeding windows
// through CapacityMonitor::observe_many / predict_masked_many must produce
// Decisions bit-identical to the scalar observe / observe_masked loop,
// including the predictor's history evolution and degraded-mode staleness
// bookkeeping. This suite drives two identically-built monitors through
// the same streams, one per path, across all three learners and uneven
// block boundaries. The same holds one level up: core::StreamPipeline,
// fed slot by slot, must reproduce the scalar add_slot -> validate ->
// observe_masked chain window by window — rows, validity and decisions.
//
// It also pins down the "zero-copy" half of the contract with a counting
// allocator (same pattern as core_hotpath_test): the warm batched observe
// path, the warm StreamPipeline and the warm BatchArena wire decode
// perform no heap allocation.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/stream.h"
#include "counters/fault.h"
#include "net/protocol.h"
#include "util/rng.h"

// ASan and TSan interpose the global allocator themselves; replacing
// operator new/delete underneath them trips alloc-dealloc-mismatch on
// nothrow allocations (e.g. std::get_temporary_buffer inside
// std::stable_sort) that the sanitizer interceptor serves but our
// replacement would hand to std::free. Under those sanitizers the
// counting allocator compiles away and the zero-alloc assertions skip;
// the equivalence half of the suite still runs in full.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HPCAP_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HPCAP_ALLOC_COUNTING 0
#endif
#endif
#ifndef HPCAP_ALLOC_COUNTING
#define HPCAP_ALLOC_COUNTING 1
#endif

namespace {

std::atomic<long> g_live_allocs{0};
std::atomic<bool> g_counting{false};

long alloc_count() { return g_live_allocs.load(std::memory_order_relaxed); }

}  // namespace

#if HPCAP_ALLOC_COUNTING
// Counting global allocator. Counts only while g_counting is set so the
// test harness's own bookkeeping stays out of the tally.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The replaced operator new above allocates with std::malloc, so freeing
// with std::free is the matching deallocation; GCC's -Wmismatched-new-delete
// cannot see through the replacement and flags every call site.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif  // HPCAP_ALLOC_COUNTING

namespace hpcap::core {
namespace {

constexpr std::size_t kTiers = 2;
constexpr std::size_t kDim = 4;

ml::Dataset tier_dataset(std::uint64_t seed) {
  ml::Dataset d({"m0", "m1", "m2", "m3"});
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    const int y = i % 2;
    d.add({y + rng.normal(0.0, 0.2), rng.uniform(), y + rng.normal(0.0, 0.3),
           rng.uniform()},
          y);
  }
  return d;
}

// Synopsis construction and training are deterministic, so two calls
// yield monitors in bit-identical state — one for each path under test.
CapacityMonitor make_monitor(ml::LearnerKind learner) {
  SynopsisBuilder builder;
  std::vector<Synopsis> synopses;
  synopses.push_back(
      builder.build(tier_dataset(41), {"mix", "app", 0, "hpc", learner}));
  synopses.push_back(
      builder.build(tier_dataset(43), {"mix", "db", 1, "hpc", learner}));
  CoordinatedPredictor::Options opts;
  opts.num_tiers = static_cast<int>(kTiers);
  opts.synopsis_tiers = {0, 1};
  return CapacityMonitor(std::move(synopses), opts);
}

void train(CapacityMonitor& monitor) {
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    std::vector<std::vector<double>> w = {
        {label + rng.normal(0.0, 0.2), rng.uniform(),
         label + rng.normal(0.0, 0.3), rng.uniform()},
        {label + rng.normal(0.0, 0.2), rng.uniform(),
         label + rng.normal(0.0, 0.3), rng.uniform()}};
    monitor.train_instance(w, label, label ? 1 : -1);
  }
  monitor.end_training_run();
}

// One stream of W windows: a flat row-major block (window w tier t at
// rows[(w*kTiers + t)*kDim]) plus a per-tier validity mask.
struct Stream {
  std::vector<double> rows;
  std::vector<std::uint8_t> valid;
  std::size_t windows = 0;

  std::vector<std::vector<double>> scalar_window(std::size_t w) const {
    std::vector<std::vector<double>> out(kTiers);
    for (std::size_t t = 0; t < kTiers; ++t) {
      const double* r = rows.data() + (w * kTiers + t) * kDim;
      out[t].assign(r, r + kDim);
    }
    return out;
  }

  std::vector<std::uint8_t> scalar_mask(std::size_t w) const {
    const std::uint8_t* m = valid.data() + w * kTiers;
    return std::vector<std::uint8_t>(m, m + kTiers);
  }
};

Stream clean_stream(std::size_t windows, std::uint64_t seed) {
  Stream s;
  s.windows = windows;
  s.valid.assign(windows * kTiers, 1);
  Rng rng(seed);
  for (std::size_t w = 0; w < windows; ++w) {
    const double level = static_cast<double>(w % 2);
    for (std::size_t t = 0; t < kTiers; ++t) {
      s.rows.push_back(level + rng.normal(0.0, 0.2));
      s.rows.push_back(rng.uniform());
      s.rows.push_back(level + rng.normal(0.0, 0.3));
      s.rows.push_back(rng.uniform());
    }
  }
  return s;
}

// Cycles through validity patterns including fully-masked windows, which
// force the predictor's stale-decision fallback (staleness > 0).
Stream masked_stream(std::size_t windows, std::uint64_t seed) {
  Stream s = clean_stream(windows, seed);
  static const std::uint8_t kPatterns[][kTiers] = {
      {1, 1}, {0, 1}, {1, 0}, {0, 0}, {1, 1}, {0, 0}, {0, 0}, {1, 0}};
  for (std::size_t w = 0; w < windows; ++w)
    for (std::size_t t = 0; t < kTiers; ++t)
      s.valid[w * kTiers + t] = kPatterns[w % 8][t];
  return s;
}

// Runs the clean stream through FaultPlan::mixed(0.05): per tier, the
// injector's tick fate decides slot validity and perturb() corrupts the
// surviving rows (a row left non-finite is invalidated and zeroed, the
// RowValidator convention). Deterministic, so both paths see one stream.
Stream faulted_stream(std::size_t windows, std::uint64_t seed) {
  Stream s = clean_stream(windows, seed);
  const counters::FaultPlan plan = counters::FaultPlan::mixed(0.05, seed);
  std::vector<counters::FaultInjector> injectors;
  for (std::size_t t = 0; t < kTiers; ++t)
    injectors.emplace_back(plan, /*stream_salt=*/t + 1);
  std::vector<double> row(kDim);
  for (std::size_t w = 0; w < s.windows; ++w) {
    for (std::size_t t = 0; t < kTiers; ++t) {
      double* r = s.rows.data() + (w * kTiers + t) * kDim;
      std::uint8_t& valid = s.valid[w * kTiers + t];
      if (injectors[t].step() != counters::FaultInjector::SampleFate::kOk) {
        valid = 0;
        std::fill(r, r + kDim, 0.0);
        continue;
      }
      row.assign(r, r + kDim);
      injectors[t].perturb(row);
      bool finite = true;
      for (double v : row) finite = finite && std::isfinite(v);
      if (!finite) {
        valid = 0;
        std::fill(r, r + kDim, 0.0);
      } else {
        std::copy(row.begin(), row.end(), r);
      }
    }
  }
  return s;
}

void expect_equal(const CoordinatedPredictor::Decision& batched,
                  const CoordinatedPredictor::Decision& scalar,
                  const char* name, std::size_t w) {
  EXPECT_EQ(batched.state, scalar.state) << name << " window " << w;
  EXPECT_EQ(batched.confident, scalar.confident) << name << " window " << w;
  EXPECT_EQ(batched.hc, scalar.hc) << name << " window " << w;
  EXPECT_EQ(batched.bottleneck_tier, scalar.bottleneck_tier)
      << name << " window " << w;
  EXPECT_EQ(batched.degraded, scalar.degraded) << name << " window " << w;
  EXPECT_EQ(batched.staleness, scalar.staleness) << name << " window " << w;
}

// Feeds `stream` to a scalar monitor window by window and to a batched
// monitor in uneven chunks (1, 5, 16, 26, ...), asserting every decision
// matches field for field.
void expect_stream_equivalence(ml::LearnerKind learner, const Stream& stream,
                               bool masked, const char* name) {
  CapacityMonitor scalar = make_monitor(learner);
  CapacityMonitor batched = make_monitor(learner);
  train(scalar);
  train(batched);

  std::vector<CoordinatedPredictor::Decision> scalar_out;
  for (std::size_t w = 0; w < stream.windows; ++w) {
    const auto rows = stream.scalar_window(w);
    scalar_out.push_back(masked
                             ? scalar.observe_masked(rows, stream.scalar_mask(w))
                             : scalar.observe(rows));
  }

  static const std::size_t kChunks[] = {1, 5, 16, 26};
  std::vector<CoordinatedPredictor::Decision> out(stream.windows);
  std::size_t w = 0, chunk = 0;
  while (w < stream.windows) {
    const std::size_t n = std::min(kChunks[chunk++ % 4], stream.windows - w);
    const WindowBlock block{stream.rows.data() + w * kTiers * kDim, n, kTiers,
                            kDim};
    if (masked) {
      batched.predict_masked_many(block, stream.valid.data() + w * kTiers,
                                  std::span(out.data() + w, n));
    } else {
      batched.observe_many(block, std::span(out.data() + w, n));
    }
    w += n;
  }

  for (std::size_t i = 0; i < stream.windows; ++i)
    expect_equal(out[i], scalar_out[i], name, i);
}

TEST(BatchedEquivalence, ObserveManyMatchesScalarTan) {
  expect_stream_equivalence(ml::LearnerKind::kTan, clean_stream(48, 11),
                            /*masked=*/false, "TAN clean");
}

TEST(BatchedEquivalence, ObserveManyMatchesScalarNaiveBayes) {
  expect_stream_equivalence(ml::LearnerKind::kNaiveBayes, clean_stream(48, 11),
                            /*masked=*/false, "NB clean");
}

TEST(BatchedEquivalence, ObserveManyMatchesScalarSvm) {
  expect_stream_equivalence(ml::LearnerKind::kSvm, clean_stream(48, 11),
                            /*masked=*/false, "SVM clean");
}

TEST(BatchedEquivalence, AllValidMaskMatchesUnmaskedObserve) {
  // With an all-ones mask, predict_masked_many must equal plain observe
  // (the documented all-valid fast path) — cross-check the two batched
  // entry points against each other.
  CapacityMonitor a = make_monitor(ml::LearnerKind::kTan);
  CapacityMonitor b = make_monitor(ml::LearnerKind::kTan);
  train(a);
  train(b);
  const Stream s = clean_stream(32, 17);
  std::vector<CoordinatedPredictor::Decision> out_a(s.windows);
  std::vector<CoordinatedPredictor::Decision> out_b(s.windows);
  const WindowBlock block{s.rows.data(), s.windows, kTiers, kDim};
  a.observe_many(block, out_a);
  b.predict_masked_many(block, s.valid.data(), out_b);
  for (std::size_t w = 0; w < s.windows; ++w)
    expect_equal(out_b[w], out_a[w], "all-valid mask", w);
}

TEST(BatchedEquivalence, MaskedStreamMatchesScalarTan) {
  expect_stream_equivalence(ml::LearnerKind::kTan, masked_stream(48, 13),
                            /*masked=*/true, "TAN masked");
}

TEST(BatchedEquivalence, MaskedStreamMatchesScalarNaiveBayes) {
  expect_stream_equivalence(ml::LearnerKind::kNaiveBayes, masked_stream(48, 13),
                            /*masked=*/true, "NB masked");
}

TEST(BatchedEquivalence, MaskedStreamMatchesScalarSvm) {
  expect_stream_equivalence(ml::LearnerKind::kSvm, masked_stream(48, 13),
                            /*masked=*/true, "SVM masked");
}

TEST(BatchedEquivalence, StaleFallbackRunMatchesScalar) {
  // A long fully-masked run: every window after the first falls back to
  // the last confident decision with rising staleness — the bookkeeping
  // must evolve identically through the batched path.
  Stream s = clean_stream(24, 19);
  for (std::size_t w = 4; w < s.windows; ++w)
    for (std::size_t t = 0; t < kTiers; ++t) s.valid[w * kTiers + t] = 0;
  expect_stream_equivalence(ml::LearnerKind::kTan, s, /*masked=*/true,
                            "stale run");
}

TEST(BatchedEquivalence, MixedFaultStreamMatchesScalarTan) {
  expect_stream_equivalence(ml::LearnerKind::kTan, faulted_stream(64, 23),
                            /*masked=*/true, "TAN faulted");
}

TEST(BatchedEquivalence, MixedFaultStreamMatchesScalarSvm) {
  expect_stream_equivalence(ml::LearnerKind::kSvm, faulted_stream(64, 23),
                            /*masked=*/true, "SVM faulted");
}

// --- StreamPipeline against the scalar chain -------------------------------

constexpr int kSlotsPerWindow = 4;

// A per-tick slot stream: slot (tick k, tier t) is present when
// present[k * kTiers + t] is set, with its row at values[(k*kTiers+t)*kDim].
struct SlotStream {
  std::size_t ticks = 0;
  std::vector<std::uint8_t> present;
  std::vector<double> values;

  bool has(std::size_t k, std::size_t t) const {
    return present[k * kTiers + t] != 0;
  }
  std::span<const double> slot(std::size_t k, std::size_t t) const {
    return {values.data() + (k * kTiers + t) * kDim, kDim};
  }
};

SlotStream clean_slots(std::size_t windows, std::uint64_t seed) {
  SlotStream s;
  s.ticks = windows * kSlotsPerWindow;
  s.present.assign(s.ticks * kTiers, 1);
  Rng rng(seed);
  for (std::size_t k = 0; k < s.ticks; ++k) {
    const double level = static_cast<double>((k / kSlotsPerWindow) % 2);
    for (std::size_t t = 0; t < kTiers; ++t) {
      s.values.push_back(level + rng.normal(0.0, 0.2));
      s.values.push_back(rng.uniform());
      s.values.push_back(level + rng.normal(0.0, 0.3));
      s.values.push_back(rng.uniform());
    }
  }
  return s;
}

// FaultPlan::mixed(0.05) per tier: dropped and blacked-out ticks become
// missing slots, and perturb() corrupts the rest (NaN, Inf, 1e30 junk,
// spikes, stuck metrics) for the aggregator and validator to catch.
SlotStream faulted_slots(std::size_t windows, std::uint64_t seed) {
  SlotStream s = clean_slots(windows, seed);
  const counters::FaultPlan plan = counters::FaultPlan::mixed(0.05, seed);
  std::vector<counters::FaultInjector> injectors;
  for (std::size_t t = 0; t < kTiers; ++t)
    injectors.emplace_back(plan, /*stream_salt=*/t + 1);
  std::vector<double> row(kDim);
  for (std::size_t k = 0; k < s.ticks; ++k) {
    for (std::size_t t = 0; t < kTiers; ++t) {
      if (injectors[t].step() != counters::FaultInjector::SampleFate::kOk) {
        s.present[k * kTiers + t] = 0;
        continue;
      }
      double* r = s.values.data() + (k * kTiers + t) * kDim;
      row.assign(r, r + kDim);
      injectors[t].perturb(row);
      std::copy(row.begin(), row.end(), r);
    }
  }
  return s;
}

StreamPipeline::Options stream_options() {
  return {.num_tiers = kTiers, .dim = kDim, .window = kSlotsPerWindow};
}

// One decided window: its tier rows (kTiers * kDim, block layout), their
// validity, and the decision.
struct WindowOut {
  std::vector<double> rows;
  std::vector<std::uint8_t> valid;
  CoordinatedPredictor::Decision decision;
};

// The scalar reference: per-tier InstanceAggregator::add_slot, a zero row
// for a discarded window, RowValidator::validate, then observe_masked,
// one window at a time.
std::vector<WindowOut> scalar_chain(const SlotStream& st) {
  CapacityMonitor monitor = make_monitor(ml::LearnerKind::kTan);
  train(monitor);
  const StreamPipeline::Options opts = stream_options();
  std::vector<counters::InstanceAggregator> aggs;
  for (std::size_t t = 0; t < kTiers; ++t)
    aggs.emplace_back(kDim, opts.window, opts.max_missing_fraction,
                      opts.aggregator_trim);
  RowValidator validator({.dim = kDim, .max_abs = opts.validator_max_abs});
  std::vector<WindowOut> out;
  for (std::size_t k = 0; k < st.ticks; ++k) {
    std::vector<std::vector<double>> rows(kTiers,
                                          std::vector<double>(kDim, 0.0));
    std::vector<std::uint8_t> valid(kTiers, 0);
    bool closed = false;
    for (std::size_t t = 0; t < kTiers; ++t) {
      const auto r = st.has(k, t)
                         ? aggs[t].add_slot({st.slot(k, t).begin(),
                                             st.slot(k, t).end()})
                         : aggs[t].mark_missing();
      if (!r.window_closed) continue;
      closed = true;
      if (r.instance) {
        rows[t] = *r.instance;
        valid[t] = validator.validate(rows[t]) == RowVerdict::kValid;
      }
    }
    if (!closed) continue;
    WindowOut w;
    for (const auto& row : rows) w.rows.insert(w.rows.end(), row.begin(), row.end());
    w.valid = valid;
    w.decision = monitor.observe_masked(rows, valid);
    out.push_back(std::move(w));
  }
  return out;
}

// Feeds `st` through a StreamPipeline the way hpcapd does: in frames of
// `frame_ticks` ticks, deciding whenever end_tick reports a full block
// and at every frame end. A full block must hold exactly kObserveBlock
// windows, and fewer may never be reported as full. `full_blocks`
// counts the block-full decides.
std::vector<WindowOut> pipeline_chain(const SlotStream& st,
                                      std::size_t frame_ticks,
                                      std::size_t* full_blocks = nullptr,
                                      StreamPipeline::Counts* counts = nullptr) {
  CapacityMonitor monitor = make_monitor(ml::LearnerKind::kTan);
  train(monitor);
  StreamPipeline p(std::move(monitor), stream_options());
  std::vector<WindowOut> out;
  const auto decide = [&] {
    const WindowBlock block = p.pending_block();
    const auto valid = p.pending_valid();
    const std::size_t width = kTiers * kDim;
    for (std::size_t w = 0; w < block.num_windows; ++w) {
      WindowOut o;
      o.rows.assign(block.data + w * width, block.data + (w + 1) * width);
      o.valid.assign(valid.begin() + static_cast<std::ptrdiff_t>(w * kTiers),
                     valid.begin() +
                         static_cast<std::ptrdiff_t>((w + 1) * kTiers));
      out.push_back(std::move(o));
    }
    const auto decided = p.decide();
    EXPECT_EQ(decided.size(), block.num_windows);
    for (std::size_t i = 0; i < decided.size(); ++i)
      out[out.size() - decided.size() + i].decision = decided[i];
    return decided.size();
  };
  if (full_blocks != nullptr) *full_blocks = 0;
  for (std::size_t k = 0; k < st.ticks; ++k) {
    for (std::size_t t = 0; t < kTiers; ++t) {
      if (st.has(k, t))
        p.add_slot(t, st.slot(k, t));
      else
        p.mark_missing(t);
    }
    if (p.end_tick()) {
      EXPECT_EQ(decide(), kObserveBlock) << "block reported full at tick " << k;
      if (full_blocks != nullptr) ++*full_blocks;
    }
    EXPECT_LT(p.pending_block().num_windows, kObserveBlock)
        << "a full block went unreported at tick " << k;
    if ((k + 1) % frame_ticks == 0) decide();
  }
  decide();
  if (counts != nullptr) *counts = p.take_counts();
  return out;
}

void expect_windows_equal(const std::vector<WindowOut>& got,
                          const std::vector<WindowOut>& want,
                          const char* name) {
  ASSERT_EQ(got.size(), want.size()) << name;
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w].rows, want[w].rows) << name << " window " << w;
    EXPECT_EQ(got[w].valid, want[w].valid) << name << " window " << w;
    expect_equal(got[w].decision, want[w].decision, name, w);
  }
}

bool all_zero(const std::vector<double>& v, std::size_t from, std::size_t n) {
  for (std::size_t i = from; i < from + n; ++i)
    if (v[i] != 0.0) return false;
  return true;
}

TEST(BatchedEquivalence, StreamPipelineMatchesScalarChainOnMixedFaults) {
  const SlotStream st = faulted_slots(256, 41);
  StreamPipeline::Counts counts;
  const auto want = scalar_chain(st);
  expect_windows_equal(pipeline_chain(st, /*frame_ticks=*/7, nullptr, &counts),
                       want, "mixed(0.05)");

  // The stream must exercise both gates, and the pipeline's tallies (what
  // hpcapd reports in STATS) must count them.
  std::uint64_t present = 0, discarded = 0, rejected = 0;
  for (const std::uint8_t p : st.present) present += p;
  for (const WindowOut& w : want) {
    for (std::size_t t = 0; t < kTiers; ++t) {
      if (w.valid[t]) continue;
      if (all_zero(w.rows, t * kDim, kDim))
        ++discarded;
      else
        ++rejected;
    }
  }
  EXPECT_GT(discarded, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(counts.slots_present, present);
  EXPECT_EQ(counts.slots_missing, st.present.size() - present);
  EXPECT_EQ(counts.windows_discarded, discarded);
  EXPECT_EQ(counts.rows_rejected, rejected);
}

TEST(BatchedEquivalence, StreamPipelineMatchesScalarChainAtBlockEdges) {
  // Frames of 31, 32 and 33 windows: the frame ends one window short of a
  // full block, exactly on one, and one past it.
  for (const std::size_t n : {std::size_t{31}, std::size_t{32},
                              std::size_t{33}}) {
    const SlotStream st = faulted_slots(3 * n, 43 + n);
    std::size_t full = 0;
    expect_windows_equal(pipeline_chain(st, n * kSlotsPerWindow, &full),
                         scalar_chain(st), "block edge");
    EXPECT_EQ(full, n < kObserveBlock ? 0u : 3u) << n << "-window frames";
  }
}

TEST(BatchedEquivalence, StreamPipelineZeroesAllMissingWindow) {
  // Window 40 sits at position 8 of the second block, over a slot that
  // held window 8's valid rows: with every slot missing it must enter the
  // block as zero placeholder rows with both tiers invalid.
  SlotStream st = clean_slots(80, 47);
  constexpr std::size_t kBlank = 40;
  for (std::size_t k = kBlank * kSlotsPerWindow;
       k < (kBlank + 1) * kSlotsPerWindow; ++k)
    for (std::size_t t = 0; t < kTiers; ++t) st.present[k * kTiers + t] = 0;
  const auto want = scalar_chain(st);
  const auto got = pipeline_chain(st, st.ticks);
  expect_windows_equal(got, want, "all-missing window");
  ASSERT_EQ(got.size(), 80u);
  EXPECT_TRUE(all_zero(got[kBlank].rows, 0, kTiers * kDim));
  EXPECT_EQ(got[kBlank].valid, std::vector<std::uint8_t>(kTiers, 0));
  EXPECT_TRUE(got[kBlank].decision.degraded);
  EXPECT_FALSE(all_zero(got[kBlank - kObserveBlock].rows, 0, kTiers * kDim));
}

class AllocationGuard {
 public:
  AllocationGuard() {
    g_live_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_counting.store(false, std::memory_order_relaxed); }
};

TEST(BatchedZeroAlloc, WarmObserveManyIsAllocationFree) {
#if !HPCAP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under ASan/TSan";
#endif
  for (const auto learner :
       {ml::LearnerKind::kTan, ml::LearnerKind::kNaiveBayes,
        ml::LearnerKind::kSvm}) {
    CapacityMonitor monitor = make_monitor(learner);
    train(monitor);
    const Stream s = clean_stream(32, 29);
    const WindowBlock block{s.rows.data(), s.windows, kTiers, kDim};
    std::vector<CoordinatedPredictor::Decision> out(s.windows);
    for (int i = 0; i < 4; ++i) monitor.observe_many(block, out);

    long observed = -1;
    {
      AllocationGuard guard;
      for (int i = 0; i < 8; ++i) monitor.observe_many(block, out);
      observed = alloc_count();
    }
    EXPECT_EQ(observed, 0)
        << "observe_many allocated on the warm batched path (learner "
        << static_cast<int>(learner) << ")";
  }
}

TEST(BatchedZeroAlloc, WarmPredictMaskedManyIsAllocationFree) {
#if !HPCAP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under ASan/TSan";
#endif
  CapacityMonitor monitor = make_monitor(ml::LearnerKind::kTan);
  train(monitor);
  const Stream s = masked_stream(32, 31);
  const WindowBlock block{s.rows.data(), s.windows, kTiers, kDim};
  std::vector<CoordinatedPredictor::Decision> out(s.windows);
  for (int i = 0; i < 4; ++i)
    monitor.predict_masked_many(block, s.valid.data(), out);

  long observed = -1;
  {
    AllocationGuard guard;
    for (int i = 0; i < 8; ++i)
      monitor.predict_masked_many(block, s.valid.data(), out);
    observed = alloc_count();
  }
  EXPECT_EQ(observed, 0)
      << "predict_masked_many allocated on the warm degraded batched path";
}

TEST(BatchedZeroAlloc, WarmStreamPipelineIsAllocationFree) {
#if !HPCAP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under ASan/TSan";
#endif
  // Slot feed, both gates, block-full and frame-end decides and the GPV
  // export: the daemon's per-tick and per-window path.
  CapacityMonitor monitor = make_monitor(ml::LearnerKind::kTan);
  train(monitor);
  StreamPipeline::Options opts = stream_options();
  opts.export_votes = true;
  StreamPipeline p(std::move(monitor), opts);
  const SlotStream st = faulted_slots(96, 53);
  int sink = 0;
  const auto feed = [&] {
    for (std::size_t k = 0; k < st.ticks; ++k) {
      for (std::size_t t = 0; t < kTiers; ++t) {
        if (st.has(k, t))
          p.add_slot(t, st.slot(k, t));
        else
          p.mark_missing(t);
      }
      if (p.end_tick() || (k + 1) % 29 == 0) {
        const auto decided = p.decide();
        for (std::size_t w = 0; w < decided.size(); ++w)
          sink += decided[w].state + p.votes(w)[0] + p.votes_valid(w)[1];
      }
    }
    (void)p.take_counts();
  };
  for (int i = 0; i < 2; ++i) feed();

  long observed = -1;
  {
    AllocationGuard guard;
    for (int i = 0; i < 2; ++i) feed();
    observed = alloc_count();
  }
  EXPECT_EQ(observed, 0) << "StreamPipeline allocated after warm-up";
  EXPECT_GE(sink, 0);
}

TEST(BatchedZeroAlloc, WarmArenaDecodeIsAllocationFree) {
#if !HPCAP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under ASan/TSan";
#endif
  // The daemon decodes every SAMPLE_BATCH through a per-connection
  // BatchArena; once the arena hits its high-water size, decoding a frame
  // must not touch the heap.
  net::SampleBatch batch;
  Rng rng(37);
  batch.first_tick = 100;
  for (int k = 0; k < 50; ++k) {
    net::Tick tick;
    tick.tiers.resize(kTiers);
    for (std::size_t t = 0; t < kTiers; ++t) {
      tick.tiers[t].present = (k + static_cast<int>(t)) % 7 != 0;
      if (tick.tiers[t].present)
        for (std::size_t a = 0; a < kDim; ++a)
          tick.tiers[t].values.push_back(rng.uniform());
    }
    batch.ticks.push_back(std::move(tick));
  }
  const std::vector<std::uint8_t> frame = net::encode_sample_batch(batch);
  // v2 frames carry a CRC-32 trailer after the payload; slice it off
  // along with the header to hand decode the bare payload.
  const std::span<const std::uint8_t> payload =
      std::span(frame).subspan(net::kHeaderSize,
                               frame.size() - net::kHeaderSize -
                                   net::kCrcSize);

  net::BatchArena arena;
  for (int i = 0; i < 4; ++i)
    (void)net::decode_sample_batch_view(payload, arena);

  long observed = -1;
  {
    AllocationGuard guard;
    for (int i = 0; i < 8; ++i) {
      const auto view = net::decode_sample_batch_view(payload, arena);
      ASSERT_EQ(view.ticks.size(), batch.ticks.size());
    }
    observed = alloc_count();
  }
  EXPECT_EQ(observed, 0)
      << "decode_sample_batch_view allocated after arena warm-up";
}

}  // namespace
}  // namespace hpcap::core

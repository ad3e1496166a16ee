// Sampling and instance aggregation.
//
// The paper samples every tier once per second and averages 30 consecutive
// samples into one training/testing *instance* (§IV.A). InstanceAggregator
// implements exactly that windowing; the collectors pair a metric model
// with the runtime cost of reading it, so the collection overhead the
// paper measures in §V.D emerges inside the simulation rather than being
// asserted.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "counters/hpc_model.h"
#include "counters/os_model.h"

namespace hpcap::counters {

// Averages fixed-size windows of samples into instances.
//
// Gap-aware: a window is a run of *slots* (ticks), not of successful
// samples. A dropped read (mark_missing) or a sample carrying non-finite
// values consumes a slot without contributing data, so windows stay
// aligned across tiers and levels even under faults. When a window closes
// with too many missing slots the instance is discarded — an average over
// a handful of surviving samples is not a 30 s instance and must not be
// passed off as one — and windows_discarded() counts the loss. Optional
// per-metric trimming (trimmed_samples > 0) drops the k highest and k
// lowest surviving samples per metric before averaging, which bounds the
// damage a spike or garbage outlier can do to the window mean. With no
// missing slots and trim 0 the result is bit-identical to a plain mean.
class InstanceAggregator {
 public:
  // `max_missing_fraction`: a closing window with more than
  // floor(fraction * window) missing slots is discarded.
  // `trimmed_samples`: per-metric count trimmed from each extreme.
  InstanceAggregator(std::size_t dim, int samples_per_instance,
                     double max_missing_fraction = 0.5,
                     int trimmed_samples = 0);

  // Outcome of one slot (see add_slot / mark_missing).
  struct SlotResult {
    bool window_closed = false;
    bool valid = false;  // instance usable (enough surviving samples)
    int missing = 0;     // missing slots in the closed window
    std::optional<std::vector<double>> instance;  // set iff closed && valid
  };

  // Zero-copy outcome of one slot: `instance` (non-empty iff closed &&
  // valid) is a span into a reusable member buffer, valid until the next
  // add_slot*/mark_missing* call on this aggregator. The daemon's batch
  // path copies the span straight into its window block without the
  // per-window vector the legacy SlotResult materializes.
  struct SlotView {
    bool window_closed = false;
    bool valid = false;
    int missing = 0;
    std::span<const double> instance;
  };

  // Adds one sample slot. A sample with any non-finite entry is treated
  // as a missing slot (a garbage read is a failed read). Throws
  // std::invalid_argument on dimension mismatch.
  SlotView add_slot_view(std::span<const double> sample);
  // The same slot read in place from `dim` little-endian IEEE-754
  // doubles at any alignment (a SAMPLE_BATCH slot straight off the wire):
  // each value is loaded from the bytes, never copied into a row first.
  SlotView add_slot_le(std::span<const std::uint8_t> sample);

  // Consumes one slot with no sample (dropped read, tier blackout).
  SlotView mark_missing_view();

  // Legacy copying interface (wraps the view variants).
  SlotResult add_slot(const std::vector<double>& sample);
  SlotResult mark_missing();

  // Legacy interface: returns the averaged instance when a window fills
  // (and survives the missing-slot check).
  std::optional<std::vector<double>> add(const std::vector<double>& sample);

  // Discards any partial window (e.g. at a workload-segment boundary, so
  // instances never straddle two regimes).
  void reset();

  int samples_buffered() const noexcept { return slots_; }
  int missing_in_window() const noexcept { return missing_; }
  int window() const noexcept { return window_; }
  int max_missing() const noexcept { return max_missing_; }
  std::uint64_t windows_discarded() const noexcept {
    return windows_discarded_;
  }

 private:
  // One surviving row, value i = value(i): checked for finiteness in
  // full, then added to the running sums (or, with trimming, buffered).
  template <typename Load>
  SlotView add_row(Load value);
  SlotView close_if_full();
  static SlotResult to_result(const SlotView& v);

  std::size_t dim_;
  int window_;
  int max_missing_;
  int trim_;
  int slots_ = 0;    // slots consumed in the current window
  int missing_ = 0;  // missing slots among them
  int rows_ = 0;     // surviving samples in the window
  // Untrimmed (trim 0): per-metric running sums of the surviving samples
  // in arrival order, the same FP addition sequence as summing the
  // buffered rows at close, so the means are bit-identical to it.
  std::vector<double> sum_;
  // Trimmed: the surviving samples of the open window in one flat
  // row-major slab (sized window_ * dim_ once at construction).
  std::vector<double> buffer_;
  std::vector<double> instance_;  // SlotView::instance backing store
  std::vector<double> column_;    // per-metric gather scratch for trimming
  std::uint64_t windows_discarded_ = 0;
};

// A collector = metric model + per-sample CPU cost on the monitored tier.
//
// The paper's PerfCtr-based tool only initializes and reads counter MSRs
// ("event counter maintenance in hardware requires no runtime overhead"),
// so its per-sample cost is microscopic. Sysstat walks and parses /proc
// text files every tick, which on the testbed's Pentium 4 front end costs
// tens of milliseconds — about 4% of each one-second sampling period.
struct CollectorCosts {
  // CPU-seconds consumed on the sampled tier per 1 Hz sample.
  static constexpr double kHpcPerSample = 0.0003;  // read+log 20 counters
  static constexpr double kOsPerSample = 0.038;    // fork sar, parse /proc
};

class HpcCollector {
 public:
  HpcCollector(sim::Tier::Config tier, HpcModel::Params params,
               std::uint64_t seed)
      : model_(std::move(tier), params, seed) {}

  std::vector<double> collect(const sim::Tier::IntervalStats& s) {
    return model_.synthesize(s);
  }
  static double cost_per_sample() { return CollectorCosts::kHpcPerSample; }

 private:
  HpcModel model_;
};

class OsCollector {
 public:
  OsCollector(sim::Tier::Config tier, OsModel::Params params,
              std::uint64_t seed)
      : model_(std::move(tier), params, seed) {}

  std::vector<double> collect(const sim::Tier::IntervalStats& s,
                              const OsGauges& g) {
    return model_.synthesize(s, g);
  }
  static double cost_per_sample() { return CollectorCosts::kOsPerSample; }

 private:
  OsModel model_;
};

}  // namespace hpcap::counters

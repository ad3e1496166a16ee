// StreamPipeline — the paper's online monitoring chain (§III) for one
// sample stream, in batched form: per-tier 1 s slots are averaged into
// window instances (counters::InstanceAggregator, gap-aware), every closed
// row is gated (RowValidator), and the rows plus their validity mask are
// decided kObserveBlock windows at a time by the stream's own
// CapacityMonitor (predict_masked_many).
//
// The caller feeds slots tick by tick — one add_slot or mark_missing per
// tier, then end_tick — and calls decide() whenever end_tick reports a
// full block and at any other point it wants the pending windows decided
// (hpcapd: the end of every SAMPLE_BATCH frame). Decisions are
// bit-identical to the scalar chain add_slot -> validate ->
// observe_masked run window by window on the same stream, wherever the
// block boundaries fall.
//
// A window whose aggregator discarded it (too many missing slots) enters
// the block as a zero placeholder row with its validity bit clear, like a
// row the validator rejected: the tier's synopses abstain and the row
// never reaches a classifier.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "core/validate.h"
#include "counters/sampler.h"

namespace hpcap::core {

// Windows decided per predict_masked_many call.
inline constexpr std::size_t kObserveBlock = 32;

class StreamPipeline {
 public:
  struct Options {
    std::size_t num_tiers = 1;
    std::size_t dim = 0;  // metric row width, every tier
    int window = 1;       // slots per instance
    double max_missing_fraction = 0.5;
    int aggregator_trim = 0;
    double validator_max_abs = 1e18;
    // Keep each decided window's full-width GPV (votes()).
    bool export_votes = false;
  };

  // Gate outcomes since the last take_counts().
  struct Counts {
    std::uint64_t slots_present = 0;
    std::uint64_t slots_missing = 0;
    std::uint64_t windows_discarded = 0;  // per-tier, failed the gap check
    std::uint64_t rows_rejected = 0;      // per-tier, failed RowValidator
  };

  // Takes the stream's monitor as is (its predictor history included).
  // Throws std::invalid_argument on a zero tier count or dimension, or
  // on aggregator/validator options their constructors refuse.
  StreamPipeline(CapacityMonitor monitor, const Options& opts);

  // One tier's slot of the current tick: a sample (a non-finite one
  // counts as missing) or no sample. `values` must be opts.dim wide.
  void add_slot(std::size_t tier, std::span<const double> values);
  // The same slot read in place from opts.dim little-endian IEEE-754
  // doubles at any alignment (hpcapd passes SAMPLE_BATCH payload bytes).
  void add_slot_le(std::size_t tier, std::span<const std::uint8_t> values);
  void mark_missing(std::size_t tier);
  // Closes the tick after every tier's slot. True when the block is full:
  // decide() must run before the next tick.
  bool end_tick();

  // Decides every pending window, oldest first. The span is valid until
  // the next decide(); empty when nothing is pending.
  std::span<const CoordinatedPredictor::Decision> decide();
  // With export_votes: the GPV window `w` of the last decide() was
  // decided from, one entry per synopsis (an abstaining synopsis reads
  // vote 0, valid 0).
  std::span<const int> votes(std::size_t w) const;
  std::span<const std::uint8_t> votes_valid(std::size_t w) const;

  // The windows closed since the last decide(): rows and validity mask
  // in WindowBlock layout.
  WindowBlock pending_block() const noexcept;
  std::span<const std::uint8_t> pending_valid() const noexcept;

  Counts take_counts() noexcept;

  const Options& options() const noexcept { return opts_; }
  CapacityMonitor& monitor() noexcept { return monitor_; }

 private:
  void place(std::size_t tier,
             const counters::InstanceAggregator::SlotView& slot);

  Options opts_;
  CapacityMonitor monitor_;
  std::vector<counters::InstanceAggregator> aggregators_;
  RowValidator validator_;
  // Block scratch, sized once: window w tier t at
  // block_[(w * num_tiers + t) * dim], its validity at valid_[w * T + t].
  std::vector<double> block_;
  std::vector<std::uint8_t> valid_;
  std::vector<CoordinatedPredictor::Decision> out_;
  std::vector<int> votes_;  // window-major, [w * m + s]
  std::vector<std::uint8_t> votes_valid_;
  std::size_t pending_ = 0;
  bool closed_ = false;  // a tier's window closed this tick
  Counts counts_;
};

}  // namespace hpcap::core

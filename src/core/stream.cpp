#include "core/stream.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hpcap::core {

StreamPipeline::StreamPipeline(CapacityMonitor monitor, const Options& opts)
    : opts_(opts),
      monitor_(std::move(monitor)),
      validator_({.dim = opts.dim, .max_abs = opts.validator_max_abs}) {
  if (opts_.num_tiers == 0 || opts_.dim == 0)
    throw std::invalid_argument("StreamPipeline: empty tier row");
  aggregators_.reserve(opts_.num_tiers);
  for (std::size_t t = 0; t < opts_.num_tiers; ++t)
    aggregators_.emplace_back(opts_.dim, opts_.window,
                              opts_.max_missing_fraction,
                              opts_.aggregator_trim);
  block_.assign(kObserveBlock * opts_.num_tiers * opts_.dim, 0.0);
  valid_.assign(kObserveBlock * opts_.num_tiers, 0);
  out_.resize(kObserveBlock);
  if (opts_.export_votes) {
    const std::size_t m = monitor_.synopses().size();
    votes_.assign(kObserveBlock * m, 0);
    votes_valid_.assign(kObserveBlock * m, 0);
  }
}

// hpcap-lint: hot-path
void StreamPipeline::add_slot(std::size_t tier,
                              std::span<const double> values) {
  ++counts_.slots_present;
  place(tier, aggregators_[tier].add_slot_view(values));
}

// hpcap-lint: hot-path
void StreamPipeline::add_slot_le(std::size_t tier,
                                 std::span<const std::uint8_t> values) {
  ++counts_.slots_present;
  place(tier, aggregators_[tier].add_slot_le(values));
}

// hpcap-lint: hot-path
void StreamPipeline::mark_missing(std::size_t tier) {
  ++counts_.slots_missing;
  place(tier, aggregators_[tier].mark_missing_view());
}

// hpcap-lint: hot-path
void StreamPipeline::place(
    std::size_t tier, const counters::InstanceAggregator::SlotView& slot) {
  if (!slot.window_closed) return;
  // All tiers consume one slot per tick, so their windows close on the
  // same tick; this tier's row and validity go to the pending window.
  closed_ = true;
  const std::size_t at = pending_ * opts_.num_tiers + tier;
  double* row = block_.data() + at * opts_.dim;
  if (slot.valid) {
    std::copy(slot.instance.begin(), slot.instance.end(), row);
    valid_[at] = validator_.validate({row, opts_.dim}) == RowVerdict::kValid;
    if (!valid_[at]) ++counts_.rows_rejected;
  } else {
    std::fill(row, row + opts_.dim, 0.0);
    valid_[at] = 0;
    ++counts_.windows_discarded;
  }
}

// hpcap-lint: hot-path
bool StreamPipeline::end_tick() {
  if (!closed_) return false;
  closed_ = false;
  return ++pending_ == kObserveBlock;
}

// hpcap-lint: hot-path
std::span<const CoordinatedPredictor::Decision> StreamPipeline::decide() {
  const std::size_t W = pending_;
  if (W == 0) return {};
  pending_ = 0;
  const WindowBlock block{block_.data(), W, opts_.num_tiers, opts_.dim};
  const std::span<CoordinatedPredictor::Decision> out(out_.data(), W);
  if (opts_.export_votes) {
    monitor_.predict_masked_many(block, valid_.data(), out, votes_.data(),
                                 votes_valid_.data());
  } else {
    monitor_.predict_masked_many(block, valid_.data(), out);
  }
  return out;
}

std::span<const int> StreamPipeline::votes(std::size_t w) const {
  const std::size_t m = monitor_.synopses().size();
  return std::span<const int>(votes_).subspan(w * m, m);
}

std::span<const std::uint8_t> StreamPipeline::votes_valid(
    std::size_t w) const {
  const std::size_t m = monitor_.synopses().size();
  return std::span<const std::uint8_t>(votes_valid_).subspan(w * m, m);
}

WindowBlock StreamPipeline::pending_block() const noexcept {
  return {block_.data(), pending_, opts_.num_tiers, opts_.dim};
}

std::span<const std::uint8_t> StreamPipeline::pending_valid() const noexcept {
  return std::span<const std::uint8_t>(valid_).first(pending_ *
                                                     opts_.num_tiers);
}

StreamPipeline::Counts StreamPipeline::take_counts() noexcept {
  return std::exchange(counts_, Counts{});
}

}  // namespace hpcap::core

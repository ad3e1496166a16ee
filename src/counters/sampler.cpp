#include "counters/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/bytes.h"

namespace hpcap::counters {

InstanceAggregator::InstanceAggregator(std::size_t dim,
                                       int samples_per_instance,
                                       double max_missing_fraction,
                                       int trimmed_samples)
    : dim_(dim),
      window_(samples_per_instance),
      trim_(trimmed_samples) {
  if (samples_per_instance <= 0)
    throw std::invalid_argument("InstanceAggregator: window must be > 0");
  if (max_missing_fraction < 0.0 || max_missing_fraction >= 1.0)
    throw std::invalid_argument(
        "InstanceAggregator: max_missing_fraction must be in [0, 1)");
  if (trimmed_samples < 0 || 2 * trimmed_samples >= samples_per_instance)
    throw std::invalid_argument(
        "InstanceAggregator: trimmed_samples must leave a non-empty core");
  max_missing_ = static_cast<int>(max_missing_fraction *
                                  static_cast<double>(window_));
  if (trim_ == 0) {
    sum_.assign(dim_, 0.0);
  } else {
    buffer_.assign(static_cast<std::size_t>(window_) * dim_, 0.0);
    column_.reserve(static_cast<std::size_t>(window_));
  }
  instance_.assign(dim_, 0.0);
}

// hpcap-lint: hot-path
template <typename Load>
InstanceAggregator::SlotView InstanceAggregator::add_row(Load value) {
  bool finite = true;
  for (std::size_t i = 0; i < dim_; ++i)
    finite = finite & std::isfinite(value(i));
  if (!finite) return mark_missing_view();
  ++slots_;
  if (trim_ == 0) {
    for (std::size_t i = 0; i < dim_; ++i) sum_[i] += value(i);
  } else {
    double* row = buffer_.data() + static_cast<std::size_t>(rows_) * dim_;
    for (std::size_t i = 0; i < dim_; ++i) row[i] = value(i);
  }
  ++rows_;
  return close_if_full();
}

// hpcap-lint: hot-path
InstanceAggregator::SlotView InstanceAggregator::add_slot_view(
    std::span<const double> sample) {
  if (sample.size() != dim_)
    throw std::invalid_argument("InstanceAggregator: dimension mismatch");
  return add_row([p = sample.data()](std::size_t i) { return p[i]; });
}

// hpcap-lint: hot-path
InstanceAggregator::SlotView InstanceAggregator::add_slot_le(
    std::span<const std::uint8_t> sample) {
  if (sample.size() != dim_ * 8)
    throw std::invalid_argument("InstanceAggregator: dimension mismatch");
  return add_row([p = sample.data()](std::size_t i) {
    return util::load_le_f64(p + 8 * i);
  });
}

InstanceAggregator::SlotView InstanceAggregator::mark_missing_view() {
  ++slots_;
  ++missing_;
  return close_if_full();
}

// hpcap-lint: hot-path
InstanceAggregator::SlotView InstanceAggregator::close_if_full() {
  SlotView r;
  if (slots_ < window_) return r;
  r.window_closed = true;
  r.missing = missing_;
  const int present = rows_;
  // Too many gaps (or too few survivors to trim): the window is not a
  // faithful 30 s average — discard it rather than averaging short.
  if (missing_ > max_missing_ || present <= 2 * trim_) {
    ++windows_discarded_;
    reset();
    return r;
  }
  r.valid = true;
  if (trim_ == 0) {
    for (std::size_t i = 0; i < dim_; ++i)
      instance_[i] = sum_[i] / static_cast<double>(present);
  } else {
    column_.resize(static_cast<std::size_t>(present));
    for (std::size_t i = 0; i < dim_; ++i) {
      for (int s = 0; s < present; ++s)
        column_[static_cast<std::size_t>(s)] =
            buffer_[static_cast<std::size_t>(s) * dim_ + i];
      std::sort(column_.begin(), column_.end());
      double sum = 0.0;
      for (int s = trim_; s < present - trim_; ++s)
        sum += column_[static_cast<std::size_t>(s)];
      instance_[i] = sum / static_cast<double>(present - 2 * trim_);
    }
  }
  r.instance = instance_;
  reset();
  return r;
}

InstanceAggregator::SlotResult InstanceAggregator::to_result(
    const SlotView& v) {
  SlotResult r;
  r.window_closed = v.window_closed;
  r.valid = v.valid;
  r.missing = v.missing;
  if (v.window_closed && v.valid)
    r.instance.emplace(v.instance.begin(), v.instance.end());
  return r;
}

InstanceAggregator::SlotResult InstanceAggregator::add_slot(
    const std::vector<double>& sample) {
  return to_result(add_slot_view(sample));
}

InstanceAggregator::SlotResult InstanceAggregator::mark_missing() {
  return to_result(mark_missing_view());
}

std::optional<std::vector<double>> InstanceAggregator::add(
    const std::vector<double>& sample) {
  auto r = add_slot(sample);
  if (r.window_closed && r.valid) return std::move(r.instance);
  return std::nullopt;
}

void InstanceAggregator::reset() {
  slots_ = 0;
  missing_ = 0;
  rows_ = 0;
  std::fill(sum_.begin(), sum_.end(), 0.0);
}

}  // namespace hpcap::counters

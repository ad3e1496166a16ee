#include "fixture.h"

#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/model_io.h"
#include "core/monitor_source.h"
#include "host.h"
#include "net/server.h"
#include "testbed/experiment.h"
#include "tpcw/mix.h"

namespace perfbench {

using namespace hpcap;

Fixture make_fixture(std::uint64_t seed) {
  Fixture fx;
  const auto browsing = std::make_shared<const tpcw::Mix>(tpcw::browsing_mix());
  const auto ordering = std::make_shared<const tpcw::Mix>(tpcw::ordering_mix());

  // The `hpcapctl train --seed <seed>` recipe, verbatim.
  std::int64_t t0 = now_ns();
  {
    testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
    cfg.seed = seed;
    const auto train_b =
        testbed::collect(testbed::training_schedule(browsing, cfg), cfg);
    const auto train_o =
        testbed::collect(testbed::training_schedule(ordering, cfg), cfg);
    core::CoordinatedPredictor::Options opts;
    opts.num_tiers = testbed::kNumTiers;
    opts.history_bits = 3;
    opts.delta = 5;
    const core::CapacityMonitor monitor = testbed::build_monitor(
        {{"ordering", &train_o}, {"browsing", &train_b}}, "hpc",
        ml::LearnerKind::kTan, opts);
    std::ostringstream os;
    core::save_monitor(os, monitor);
    fx.bundle = os.str();
  }
  fx.train_s = static_cast<double>(now_ns() - t0) * 1e-9;

  // The stream: an independent testbed run (its own seed) across the
  // knee, recorded at 1 Hz. Only the generated ticks reach the program.
  t0 = now_ns();
  testbed::TestbedConfig cfg = testbed::TestbedConfig::paper_defaults();
  cfg.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  const auto run = testbed::collect(
      testbed::interleaved_schedule(browsing, ordering, cfg), cfg);
  if (run.samples.size() < kStreamTicks)
    throw std::runtime_error("perfbench: testbed recorded too few samples");
  fx.stream.reserve(kStreamTicks);
  for (std::size_t i = 0; i < kStreamTicks; ++i) {
    const testbed::SampleRecord& s = run.samples[i];
    Tick tick;
    tick.tiers.resize(kTiers);
    for (int t = 0; t < kTiers; ++t) {
      tick.tiers[static_cast<std::size_t>(t)].present = true;
      tick.tiers[static_cast<std::size_t>(t)].values =
          s.hpc[static_cast<std::size_t>(t)];
    }
    fx.stream.push_back(std::move(tick));
  }
  fx.dim = fx.stream.front().tiers.front().values.size();
  fx.record_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return fx;
}

core::RowValidator make_validator(std::size_t dim) {
  const net::ServerConfig cfg;
  core::RowValidator::Options vopts;
  vopts.dim = dim;
  vopts.max_abs = cfg.validator_max_abs;
  return core::RowValidator(vopts);
}

std::vector<counters::InstanceAggregator> make_aggregators(std::size_t dim,
                                                           int window) {
  const net::ServerConfig cfg;
  std::vector<counters::InstanceAggregator> aggs;
  for (int t = 0; t < kTiers; ++t)
    aggs.emplace_back(dim, window, cfg.max_missing_fraction,
                      cfg.aggregator_trim);
  return aggs;
}

DecisionFrame to_frame(std::uint32_t window_index,
                       const core::CoordinatedPredictor::Decision& d) {
  DecisionFrame f;
  f.window_index = window_index;
  f.state = static_cast<std::uint8_t>(d.state);
  f.confident = d.confident ? 1 : 0;
  f.degraded = d.degraded ? 1 : 0;
  f.hc = d.hc;
  f.bottleneck_tier = d.bottleneck_tier;
  f.staleness = d.staleness;
  return f;
}

bool same_decision(const DecisionFrame& a, const DecisionFrame& b) {
  return a.window_index == b.window_index && a.state == b.state &&
         a.confident == b.confident && a.degraded == b.degraded &&
         a.hc == b.hc && a.bottleneck_tier == b.bottleneck_tier &&
         a.staleness == b.staleness;
}

std::string describe(const DecisionFrame& d) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{window %u state %u confident %u degraded %u hc %d "
                "bottleneck %d staleness %d}",
                d.window_index, d.state, d.confident, d.degraded, d.hc,
                d.bottleneck_tier, d.staleness);
  return buf;
}

struct Oracle::State {
  core::CapacityMonitor monitor;
  core::RowValidator validator;
  std::vector<counters::InstanceAggregator> aggs;
  std::vector<std::vector<double>> rows;
  std::vector<std::uint8_t> mask;
};

Oracle::Oracle(const Fixture& fx, int window) : fx_(fx) {
  auto source = core::MonitorSource::from_bytes(fx.bundle);
  st_ = std::unique_ptr<State>(new State{
      source.instantiate(), make_validator(fx.dim),
      make_aggregators(fx.dim, window),
      std::vector<std::vector<double>>(kTiers, std::vector<double>(fx.dim)),
      std::vector<std::uint8_t>(kTiers, 0)});
  st_->monitor.predictor().reset_history();
}

Oracle::~Oracle() = default;

const std::vector<DecisionFrame>& Oracle::through(std::size_t ticks) {
  State& s = *st_;
  for (; ticks_done_ < ticks; ++ticks_done_) {
    const Tick& tick = fx_.stream[ticks_done_ % fx_.stream.size()];
    bool closed = false;
    for (std::size_t t = 0; t < kTiers; ++t) {
      const auto r = tick.tiers[t].present
                         ? s.aggs[t].add_slot_view(tick.tiers[t].values)
                         : s.aggs[t].mark_missing_view();
      if (!r.window_closed) continue;
      closed = true;
      if (r.valid) {
        std::copy(r.instance.begin(), r.instance.end(), s.rows[t].begin());
        s.mask[t] = s.validator.validate({s.rows[t].data(), fx_.dim}) ==
                            core::RowVerdict::kValid
                        ? 1
                        : 0;
      } else {
        std::fill(s.rows[t].begin(), s.rows[t].end(), 0.0);
        s.mask[t] = 0;
      }
    }
    if (!closed) continue;
    if (ticks_done_ < fx_.stream.size())
      for (std::size_t t = 0; t < kTiers; ++t) {
        cycle_rows_.insert(cycle_rows_.end(), s.rows[t].begin(),
                           s.rows[t].end());
        cycle_mask_.push_back(s.mask[t]);
      }
    out_.push_back(to_frame(static_cast<std::uint32_t>(out_.size()),
                            s.monitor.observe_masked(s.rows, s.mask)));
    if (out_.size() - 1 == perturbed_) out_.back().state ^= 1;
  }
  return out_;
}

void Oracle::perturb(std::size_t window) {
  perturbed_ = window;
  if (window < out_.size()) out_[window].state ^= 1;
}

std::size_t count_mismatches(const std::vector<DecisionFrame>& got,
                             const std::vector<DecisionFrame>& want,
                             std::size_t* first) {
  *first = SIZE_MAX;
  std::size_t bad = 0;
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (same_decision(got[i], want[i])) continue;
    if (bad++ == 0) *first = i;
  }
  return bad;
}

}  // namespace perfbench

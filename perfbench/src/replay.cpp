#include "replay.h"

#include <algorithm>
#include <functional>

#include "core/monitor_source.h"
#include "host.h"

namespace perfbench {

using namespace hpcap;

namespace {

// Median over 5 repetitions of fn's cost per unit, each repetition
// running fn back to back for at least 20 ms (after one warm-up call).
double per_unit_ns(const std::function<void()>& fn, double units) {
  fn();
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::int64_t iters = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do {
      fn();
      ++iters;
      t1 = now_ns();
    } while (t1 - t0 < 20'000'000);
    reps.push_back(static_cast<double>(t1 - t0) /
                   (static_cast<double>(iters) * units));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

volatile std::uint64_t g_sink = 0;

}  // namespace

std::vector<net::SampleBatch> make_frames(const Fixture& fx,
                                          int ticks_per_frame) {
  std::vector<net::SampleBatch> frames;
  const auto per = static_cast<std::size_t>(ticks_per_frame);
  for (std::size_t start = 0; start < fx.stream.size(); start += per) {
    net::SampleBatch b;
    b.first_tick = static_cast<std::uint32_t>(start);
    b.ticks.assign(fx.stream.begin() + static_cast<long>(start),
                   fx.stream.begin() +
                       static_cast<long>(std::min(start + per,
                                                  fx.stream.size())));
    frames.push_back(std::move(b));
  }
  return frames;
}

StageTimes replay_stages(const Fixture& fx, int window, int ticks_per_frame) {
  StageTimes st;
  const double ticks = static_cast<double>(fx.stream.size());
  const double samples = ticks * kTiers;
  const std::size_t dim = fx.dim;

  // --- counters/sampler + core/validate: the oracle's pass over one
  // stream cycle gives the windows and decisions the workload produced.
  Oracle oracle(fx, window);
  const std::vector<DecisionFrame> decisions = oracle.through(fx.stream.size());
  const std::vector<double>& rows = oracle.cycle_rows();
  const std::vector<std::uint8_t>& valid = oracle.cycle_mask();
  const std::size_t nrows = valid.size();
  const std::size_t nwindows = nrows / kTiers;

  st.aggregator_ns_per_slot = per_unit_ns(
      [&] {
        auto aggs = make_aggregators(dim, window);
        std::uint64_t closed = 0;
        for (const Tick& tick : fx.stream)
          for (std::size_t t = 0; t < kTiers; ++t)
            closed += aggs[t].add_slot_view(tick.tiers[t].values).window_closed;
        g_sink = g_sink + closed;
      },
      samples);
  auto validator = make_validator(dim);
  st.validator_ns_per_row = per_unit_ns(
      [&] {
        std::uint64_t ok = 0;
        for (std::size_t r = 0; r < nrows; ++r)
          ok += validator.validate({rows.data() + r * dim, dim}) ==
                core::RowVerdict::kValid;
        g_sink = g_sink + ok;
      },
      static_cast<double>(nrows));

  // --- core/pipeline: batched (the daemon's path) and scalar.
  const auto source = core::MonitorSource::from_bytes(fx.bundle);
  core::CapacityMonitor monitor = source.instantiate();
  constexpr std::size_t kBlock = 32;
  std::vector<core::CoordinatedPredictor::Decision> out(kBlock);
  st.predict_ns_per_window = per_unit_ns(
      [&] {
        monitor.predictor().reset_history();
        for (std::size_t w = 0; w < nwindows; w += kBlock) {
          const std::size_t n = std::min(kBlock, nwindows - w);
          const core::WindowBlock block{rows.data() + w * kTiers * dim, n,
                                        kTiers, dim};
          monitor.predict_masked_many(block, valid.data() + w * kTiers,
                                      std::span(out.data(), n));
        }
        g_sink = g_sink + static_cast<std::uint64_t>(out[0].state);
      },
      static_cast<double>(nwindows));
  std::vector<std::vector<double>> wrows(kTiers, std::vector<double>(dim));
  std::vector<std::uint8_t> wmask(kTiers);
  st.observe_ns_per_window = per_unit_ns(
      [&] {
        monitor.predictor().reset_history();
        std::uint64_t s = 0;
        for (std::size_t w = 0; w < nwindows; ++w) {
          for (std::size_t t = 0; t < kTiers; ++t) {
            const double* src = rows.data() + (w * kTiers + t) * dim;
            std::copy(src, src + dim, wrows[t].begin());
            wmask[t] = valid[w * kTiers + t];
          }
          s += static_cast<std::uint64_t>(
              monitor.observe_masked(wrows, wmask).state);
        }
        g_sink = g_sink + s;
      },
      static_cast<double>(nwindows));

  // --- core/monitor_source + core/model_io.
  st.model_load_ms =
      per_unit_ns(
          [&] {
            const auto s = core::MonitorSource::from_bytes(fx.bundle);
            g_sink = g_sink + s.version();
          },
          1.0) *
      1e-6;
  st.instantiate_us =
      per_unit_ns(
          [&] {
            const core::CapacityMonitor m = source.instantiate();
            g_sink = g_sink + m.synopses().size();
          },
          1.0) *
      1e-3;

  if (ticks_per_frame <= 0) return st;

  // --- net/protocol: the workload's own frames and decisions.
  std::vector<net::SampleBatch> frames = make_frames(fx, ticks_per_frame);
  std::vector<std::vector<std::uint8_t>> encoded(frames.size());
  double bytes = 0.0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].batch_seq = i + 1;
    net::encode_sample_batch_into(frames[i], encoded[i]);
    bytes += static_cast<double>(encoded[i].size());
  }
  st.bytes_per_sample = bytes / samples;
  std::vector<std::uint8_t> scratch;
  st.encode_ns_per_sample = per_unit_ns(
      [&] {
        for (const net::SampleBatch& b : frames) {
          scratch.clear();
          net::encode_sample_batch_into(b, scratch);
        }
        g_sink = g_sink + scratch.size();
      },
      samples);
  st.crc32_ns_per_kb = per_unit_ns(
      [&] {
        std::uint32_t x = 0;
        for (const auto& e : encoded) x ^= net::crc32(e);
        g_sink = g_sink + x;
      },
      bytes / 1024.0);
  net::FrameAssembler assembler;
  net::BatchArena arena;
  st.decode_ns_per_sample = per_unit_ns(
      [&] {
        std::size_t n = 0;
        for (const auto& e : encoded) {
          assembler.append(e.data(), e.size());
          const auto ref = assembler.next_ref();
          n += net::decode_sample_batch_view(ref->payload, arena).ticks.size();
        }
        g_sink = g_sink + n;
      },
      samples);

  const auto nd = static_cast<double>(decisions.size());
  st.decision_encode_ns = per_unit_ns(
      [&] {
        for (const DecisionFrame& d : decisions) {
          scratch.clear();
          net::encode_decision_into(d, scratch);
        }
        g_sink = g_sink + scratch.size();
      },
      nd);
  st.decision_codec_ns = per_unit_ns(
      [&] {
        std::int64_t s = 0;
        for (const DecisionFrame& d : decisions) {
          scratch.clear();
          net::encode_decision_into(d, scratch);
          assembler.append(scratch.data(), scratch.size());
          s += net::decode_decision(assembler.next_ref()->payload).hc;
        }
        g_sink = g_sink + static_cast<std::uint64_t>(s);
      },
      nd);
  return st;
}

}  // namespace perfbench

// Seeded fixtures and the correctness oracle.
//
// Fixtures are made from the benchmark's --seed alone: the model is
// trained with the `hpcapctl train` recipe (testbed::build_monitor, TAN,
// one synopsis per training mix and tier), and the tick stream is the
// testbed's 1 Hz HPC samples for both tiers under the paper's interleaved
// browsing/ordering schedule. Every workload replays that stream
// cyclically; tick i is stream[i % size].
//
// The oracle is the scalar in-process pipeline (add_slot_view ->
// RowValidator::validate -> observe_masked) run from a fresh monitor
// instance over the same ticks. Every decision a workload receives must
// equal it field for field.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/validate.h"
#include "counters/sampler.h"
#include "net/protocol.h"

namespace perfbench {

using hpcap::net::DecisionFrame;
using hpcap::net::Tick;

inline constexpr int kTiers = 2;
// Ticks in one cycle of the stream: a multiple of every frame and window
// size the workloads use (64-tick frames, 4-tick windows), so cycles stay
// frame- and window-aligned.
inline constexpr std::size_t kStreamTicks = 3584;

struct Fixture {
  std::string bundle;        // serialized CapacityMonitor (model_io v1)
  std::vector<Tick> stream;  // kStreamTicks ticks, kTiers present slots
  std::size_t dim = 0;       // metrics per slot
  double train_s = 0.0;      // fixture time, reported apart from setup_s
  double record_s = 0.0;
};

Fixture make_fixture(std::uint64_t seed);

// The daemon's per-session knobs (net::ServerConfig defaults), shared by
// the oracle and the in-process workload.
hpcap::core::RowValidator make_validator(std::size_t dim);
std::vector<hpcap::counters::InstanceAggregator> make_aggregators(
    std::size_t dim, int window);

DecisionFrame to_frame(std::uint32_t window_index,
                       const hpcap::core::CoordinatedPredictor::Decision& d);
bool same_decision(const DecisionFrame& a, const DecisionFrame& b);
std::string describe(const DecisionFrame& d);

// Scalar reference decisions for the cyclic stream, extended on demand.
class Oracle {
 public:
  Oracle(const Fixture& fx, int window);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  // Decisions for every window closed by the first `ticks` ticks.
  const std::vector<DecisionFrame>& through(std::size_t ticks);
  // Negative control: flips one field of one reference decision so a
  // correct workload must be reported as divergent.
  void perturb(std::size_t window);

  // The windows of the first stream cycle (once through() has covered
  // it), as observe_masked saw them: window-major, kTiers rows of `dim`
  // values per window, and one validity flag per row.
  const std::vector<double>& cycle_rows() const { return cycle_rows_; }
  const std::vector<std::uint8_t>& cycle_mask() const { return cycle_mask_; }

 private:
  struct State;
  const Fixture& fx_;
  std::unique_ptr<State> st_;
  std::size_t ticks_done_ = 0;
  std::vector<DecisionFrame> out_;
  std::size_t perturbed_ = SIZE_MAX;
  std::vector<double> cycle_rows_;
  std::vector<std::uint8_t> cycle_mask_;
};

// Compares `got` (window i at index i) with the reference. Returns the
// number of mismatched windows among the first min(sizes) and records the
// first divergence in `first` (SIZE_MAX when none).
std::size_t count_mismatches(const std::vector<DecisionFrame>& got,
                             const std::vector<DecisionFrame>& want,
                             std::size_t* first);

}  // namespace perfbench

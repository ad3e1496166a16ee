// Per-stage replays: the exact frames and windows a workload sent, pushed
// again through the public stage functions one stage at a time, each
// timed on its own (median of several repetitions). These give the
// per-layer times without instrumenting the program.
#pragma once

#include "fixture.h"

namespace perfbench {

struct StageTimes {
  // net/protocol (zero when the workload sends no frames).
  double crc32_ns_per_kb = 0.0;
  double encode_ns_per_sample = 0.0;
  double decode_ns_per_sample = 0.0;  // assemble (incl. CRC) + view decode
  double decision_codec_ns = 0.0;     // DECISION encode + assemble + decode
  double decision_encode_ns = 0.0;    // the daemon's half of the above
  double bytes_per_sample = 0.0;
  // counters/sampler, core/validate, core/pipeline.
  double aggregator_ns_per_slot = 0.0;
  double validator_ns_per_row = 0.0;
  double predict_ns_per_window = 0.0;  // predict_masked_many, blocks of 32
  double observe_ns_per_window = 0.0;  // scalar observe_masked
  // core/monitor_source + core/model_io.
  double model_load_ms = 0.0;
  double instantiate_us = 0.0;
};

// `ticks_per_frame` 0 means the workload sends no frames.
StageTimes replay_stages(const Fixture& fx, int window, int ticks_per_frame);

// The fixture stream cut into SAMPLE_BATCH frames of `ticks_per_frame`.
std::vector<hpcap::net::SampleBatch> make_frames(const Fixture& fx,
                                                 int ticks_per_frame);

}  // namespace perfbench

// FrameAssembler split-point stress: a golden multi-frame stream must
// decode bit-identically no matter how the transport fragments it —
// byte-at-a-time, and at seeded randomized chunk boundaries — and every
// truncation point of every payload must throw ProtocolError rather than
// read past the buffer. Runs under the ubsan label (the codecs are the
// integer-heavy decode surface the sanitizer watches) and asan.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/rng.h"

namespace hpcap::net {
namespace {

using Bytes = std::vector<std::uint8_t>;
using hpcap::Rng;

// One golden frame plus the decoder its payload must satisfy (empty for
// the payload-less control frames).
struct GoldenFrame {
  Bytes bytes;
  std::function<void(std::span<const std::uint8_t>)> decode;
};

// A stream exercising every frame type, boundary values included
// (NaN/Inf doubles survive bit-exactly; empty strings; absent tier
// slots).
std::vector<GoldenFrame> golden_frames() {
  std::vector<GoldenFrame> frames;

  HelloRequest hreq;
  hreq.agent = "stress-agent";
  hreq.level = "hpc";
  hreq.num_tiers = 3;
  hreq.window = 8;
  hreq.resume_token = 0xD00DFEEDull;
  hreq.resume_from_window = 17;
  frames.push_back({encode_hello_request(hreq),
                    [](auto p) { (void)decode_hello_request(p); }});

  HelloReply hrep;
  hrep.accepted = true;
  hrep.message = "";
  hrep.num_tiers = 3;
  hrep.window = 8;
  hrep.model_version = 7;
  hrep.dims = {14, 14, 6};
  hrep.session_token = 0x1234ull;
  hrep.last_applied_seq = 3;
  frames.push_back({encode_hello_reply(hrep),
                    [](auto p) { (void)decode_hello_reply(p); }});

  SampleBatch batch;
  batch.batch_seq = 0xFEDCBA9876543210ull;
  batch.first_tick = 0xfffffff0u;  // near wrap
  batch.ticks.resize(5);
  Rng rng(2024);
  for (std::size_t t = 0; t < batch.ticks.size(); ++t) {
    batch.ticks[t].tiers.resize(3);
    for (std::size_t k = 0; k < 3; ++k) {
      TierSlot& slot = batch.ticks[t].tiers[k];
      slot.present = !(t == 2 && k == 1);  // one blackout slot
      if (!slot.present) continue;
      slot.values.resize(4);
      for (double& v : slot.values) v = rng.uniform(-1e9, 1e9);
    }
  }
  batch.ticks[4].tiers[0].values = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -0.0,
      5e-324,  // denormal min
  };
  frames.push_back({encode_sample_batch(batch),
                    [](auto p) { (void)decode_sample_batch(p); }});

  DecisionFrame d;
  d.window_index = 41;
  d.state = 1;
  d.confident = 1;
  d.degraded = 0;
  d.hc = -3;
  d.bottleneck_tier = 2;
  d.staleness = 0;
  frames.push_back({encode_decision(d),
                    [](auto p) { (void)decode_decision(p); }});

  frames.push_back({encode_ack({0x123456789ABCull, 29}),
                    [](auto p) { (void)decode_ack(p); }});

  StatsReply stats;
  stats.entries = {{"frames_in", 123456789012345ull}, {"windows", 41}};
  frames.push_back({encode_stats_reply(stats),
                    [](auto p) { (void)decode_stats_reply(p); }});

  frames.push_back({encode_reload_request({"/tmp/model.bin"}),
                    [](auto p) { (void)decode_reload_request(p); }});
  ReloadReply rrep;
  rrep.ok = true;
  rrep.model_version = 8;
  rrep.message = "swapped";
  frames.push_back({encode_reload_reply(rrep),
                    [](auto p) { (void)decode_reload_reply(p); }});

  frames.push_back({encode_stats_request(), nullptr});
  frames.push_back({encode_shutdown(), nullptr});
  return frames;
}

// The bare payload of an encoded frame: header and CRC-32 trailer
// stripped.
Bytes bare_payload(const Bytes& frame) {
  return Bytes(frame.begin() + kHeaderSize, frame.end() - kCrcSize);
}

Bytes concat(const std::vector<GoldenFrame>& frames) {
  Bytes all;
  for (const GoldenFrame& f : frames)
    all.insert(all.end(), f.bytes.begin(), f.bytes.end());
  return all;
}

// Feeds `stream` to a FrameAssembler in the given chunk sizes and drains
// every complete frame after each chunk (mirroring the daemon's read
// loop, which drains per read).
std::vector<Frame> assemble_chunked(const Bytes& stream,
                                    const std::vector<std::size_t>& chunks) {
  FrameAssembler fa;
  std::vector<Frame> out;
  std::size_t pos = 0;
  for (std::size_t n : chunks) {
    fa.append(stream.data() + pos, n);
    pos += n;
    while (auto f = fa.next()) out.push_back(std::move(*f));
  }
  EXPECT_EQ(pos, stream.size());
  while (auto f = fa.next()) out.push_back(std::move(*f));
  return out;
}

void expect_identical(const std::vector<Frame>& got,
                      const std::vector<GoldenFrame>& want_frames) {
  ASSERT_EQ(got.size(), want_frames.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Bytes& want = want_frames[i].bytes;
    EXPECT_EQ(got[i].payload, bare_payload(want)) << "frame " << i;
    EXPECT_EQ(static_cast<int>(got[i].type), static_cast<int>(want[5]))
        << "frame " << i;
  }
}

TEST(NetFrameStress, ByteAtATimeDecodesBitIdentically) {
  const auto frames = golden_frames();
  const Bytes stream = concat(frames);
  const std::vector<std::size_t> ones(stream.size(), 1);
  expect_identical(assemble_chunked(stream, ones), frames);
}

TEST(NetFrameStress, RandomizedChunkBoundariesDecodeBitIdentically) {
  const auto frames = golden_frames();
  const Bytes stream = concat(frames);
  Rng rng(7);  // seeded: failures reproduce exactly
  for (int round = 0; round < 200; ++round) {
    std::vector<std::size_t> chunks;
    std::size_t left = stream.size();
    while (left > 0) {
      // Mix of tiny and large chunks; bias toward sizes that straddle the
      // 12-byte header so the header/payload seam gets hammered.
      const std::size_t maxc = round % 3 == 0 ? 7 : 1031;
      const std::size_t n =
          std::min<std::size_t>(left, 1 + rng.uniform_u64(maxc));
      chunks.push_back(n);
      left -= n;
    }
    expect_identical(assemble_chunked(stream, chunks), frames);
  }
}

TEST(NetFrameStress, EveryPayloadTruncationPointThrows) {
  for (const GoldenFrame& frame : golden_frames()) {
    if (!frame.decode) continue;  // STATS req / SHUTDOWN carry no payload
    const Bytes payload = bare_payload(frame.bytes);
    // Sanity: the full payload decodes.
    EXPECT_NO_THROW(
        frame.decode({payload.data(), payload.size()}));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_THROW(frame.decode({payload.data(), cut}), ProtocolError)
          << "type " << static_cast<int>(frame.bytes[5]) << " cut at "
          << cut << "/" << payload.size();
    }
  }
}

TEST(NetFrameStress, TruncatedStreamYieldsOnlyCompleteFrames) {
  const auto frames = golden_frames();
  const Bytes stream = concat(frames);
  // Cut the whole stream at every byte: the assembler must yield exactly
  // the frames that are fully contained and then report "need more",
  // never throw, never yield a partial frame.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameAssembler fa;
    fa.append(stream.data(), cut);
    std::size_t complete = 0, consumed = 0;
    for (const GoldenFrame& f : frames) {
      if (consumed + f.bytes.size() <= cut) {
        ++complete;
        consumed += f.bytes.size();
      } else {
        break;
      }
    }
    std::size_t got = 0;
    while (auto f = fa.next()) ++got;
    EXPECT_EQ(got, complete) << "cut at " << cut;
  }
}

TEST(NetFrameStress, CorruptHeadersThrowAtTheSeam) {
  const auto frames = golden_frames();
  const Bytes stream = concat(frames);
  struct Mutation {
    std::size_t offset;  // within the *second* frame's header
    std::uint8_t value;
    const char* what;
  };
  const std::size_t base = frames[0].bytes.size();
  const Mutation mutations[] = {
      {0, 0x00, "bad magic"},
      {4, 0x7f, "unsupported version"},
      {5, 0x2a, "unknown frame type"},
      {6, 0x01, "nonzero reserved"},
      {11, 0xff, "payload size over cap"},
  };
  for (const Mutation& m : mutations) {
    Bytes bad = stream;
    bad[base + m.offset] = m.value;
    FrameAssembler fa;
    // Feed in two chunks splitting inside the corrupted header, so the
    // error surfaces on the later append's drain.
    const std::size_t split = base + 6;
    fa.append(bad.data(), split);
    std::optional<Frame> first;
    EXPECT_NO_THROW(first = fa.next()) << m.what;
    ASSERT_TRUE(first.has_value()) << m.what;
    fa.append(bad.data() + split, bad.size() - split);
    EXPECT_THROW(
        {
          while (fa.next()) {
          }
        },
        ProtocolError)
        << m.what;
  }
}

}  // namespace
}  // namespace hpcap::net

// Wire-protocol unit tests: encode/decode round trips for every frame
// type, golden little-endian byte layouts (so the format is pinned, not
// just self-consistent), CRC-32 integrity on every frame, malformed-input
// rejection (the retired v1 header included), and incremental stream
// assembly.
// The decode paths must throw ProtocolError on any hostile input —
// truncation, oversized counts, trailing garbage, checksum damage — and
// never read out of bounds (this suite carries the asan label).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "net/protocol.h"

namespace hpcap::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Strips the 12-byte header and the 4-byte CRC trailer off a full
// encoded frame, leaving the bare payload.
Bytes payload_of(const Bytes& frame) {
  return Bytes(frame.begin() + kHeaderSize, frame.end() - kCrcSize);
}

TEST(NetProtocol, GoldenHeaderLayoutV2CarriesCrcTrailer) {
  const Bytes frame = encode_stats_request();
  ASSERT_EQ(frame.size(), kHeaderSize + kCrcSize);
  // magic 0x48504341 little-endian = "ACPH" on the wire.
  const Bytes head = {0x41, 0x43, 0x50, 0x48,  // magic
                      0x02,                    // version
                      0x04,                    // type = STATS
                      0x00, 0x00,              // reserved
                      0x00, 0x00, 0x00, 0x00}; // payload_size
  EXPECT_EQ(Bytes(frame.begin(), frame.begin() + kHeaderSize), head);
  // Little-endian CRC-32 over header + payload, pinned as literal bytes
  // (zlib.crc32 of the 12 header bytes) so a wrong checksum cannot hide.
  const Bytes trailer = {0x27, 0x46, 0x8d, 0xf5};
  EXPECT_EQ(Bytes(frame.end() - kCrcSize, frame.end()), trailer);
}

TEST(NetProtocol, Crc32MatchesReferenceCheckValue) {
  // The canonical IEEE 802.3 (zlib) check vector: crc32("123456789").
  // Pins polynomial, reflection, and the init/final xor in one shot.
  const Bytes nine = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(nine), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32_portable(nine), 0xCBF43926u);
  EXPECT_EQ(crc32_portable({}), 0x00000000u);
}

// Bit-at-a-time CRC-32 straight from the polynomial: the definition both
// kernels (carry-less folding and slicing-by-8) must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(NetProtocol, Crc32MatchesBitwiseReference) {
  // Every length 0-300 at every start offset 0-7 covers whole 8-byte
  // blocks, each 0-15 byte tail after the folded bulk, one to several
  // 64-byte folds, and unaligned starts; the 64 KiB buffer runs the
  // four-lane fold for a thousand steps.
  std::mt19937 rng(20081);
  Bytes buf(300 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + off, len);
      const std::uint32_t want = crc32_bitwise(s);
      ASSERT_EQ(crc32(s), want) << "offset " << off << " length " << len;
      ASSERT_EQ(crc32_portable(s), want)
          << "offset " << off << " length " << len;
    }
  }
  Bytes big(64 * 1024);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t want = crc32_bitwise(big);
  EXPECT_EQ(crc32(big), want);
  EXPECT_EQ(crc32_portable(big), want);
}

TEST(NetProtocol, Crc32MatchesBitwiseReferenceAtKernelEdges) {
  // Lengths either side of each edge of the folded kernel: the 64-byte
  // minimum (63/64/65), one 64-byte block plus a 16-byte fold (79/80/81)
  // and the second four-lane step (127/128/129), plus the same around
  // 4 KiB, at every start offset 0-7.
  std::mt19937 rng(7);
  Bytes buf(4096 + 64 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (const std::size_t edge : {64u, 80u, 128u, 4096u}) {
    for (std::size_t len = edge - 1; len <= edge + 1; ++len) {
      for (std::size_t off = 0; off < 8; ++off) {
        const std::span<const std::uint8_t> s(buf.data() + off, len);
        const std::uint32_t want = crc32_bitwise(s);
        EXPECT_EQ(crc32(s), want) << "offset " << off << " length " << len;
        EXPECT_EQ(crc32_portable(s), want)
            << "offset " << off << " length " << len;
      }
    }
  }
}

TEST(NetProtocol, GoldenHelloRequestBytesV2) {
  HelloRequest req;
  req.agent = "a";
  req.level = "os";
  req.num_tiers = 2;
  req.window = 0x1234;
  req.resume_token = 0x1122334455667788ull;
  req.resume_from_window = 0xA1B2C3D4u;
  const Bytes frame = encode_hello_request(req);
  const Bytes body = {
      0x41, 0x43, 0x50, 0x48, 0x02, 0x01, 0x00, 0x00,  // header
      0x1b, 0x00, 0x00, 0x00,                          // payload = 27
      0x01, 0x00, 0x00, 0x00, 'a',                     // str agent
      0x02, 0x00, 0x00, 0x00, 'o',  's',               // str level
      0x02, 0x00,                                      // u16 num_tiers
      0x34, 0x12,                                      // u16 window (LE)
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64 resume_token
      0xD4, 0xC3, 0xB2, 0xA1,                          // u32 resume_from
  };
  ASSERT_EQ(frame.size(), body.size() + kCrcSize);
  EXPECT_EQ(Bytes(frame.begin(), frame.end() - kCrcSize), body);
  // Little-endian zlib.crc32(body), pinned as literal bytes.
  const Bytes trailer = {0x12, 0x25, 0x7c, 0x4e};
  EXPECT_EQ(Bytes(frame.end() - kCrcSize, frame.end()), trailer);
}

TEST(NetProtocol, GoldenF64Encoding) {
  Bytes out;
  put_f64(out, 1.0);  // IEEE-754: 0x3FF0000000000000
  const Bytes expected = {0, 0, 0, 0, 0, 0, 0xF0, 0x3F};
  EXPECT_EQ(out, expected);
}

TEST(NetProtocol, HelloRoundTrip) {
  HelloRequest req;
  req.agent = "app-tier-agent";
  req.level = "hpc";
  req.num_tiers = 2;
  req.window = 30;
  req.resume_token = 0xFEEDBEEFull;
  req.resume_from_window = 99;
  const auto back = decode_hello_request(payload_of(encode_hello_request(req)));
  EXPECT_EQ(back.agent, req.agent);
  EXPECT_EQ(back.level, req.level);
  EXPECT_EQ(back.num_tiers, req.num_tiers);
  EXPECT_EQ(back.window, req.window);
  EXPECT_EQ(back.resume_token, req.resume_token);
  EXPECT_EQ(back.resume_from_window, req.resume_from_window);

  HelloReply rep;
  rep.accepted = true;
  rep.message = "hpcapd ready";
  rep.num_tiers = 2;
  rep.window = 30;
  rep.model_version = 7;
  rep.dims = {20, 20};
  rep.session_token = 0xABCDEF0123456789ull;
  rep.last_applied_seq = 41;
  rep.resumed = true;
  const auto rback = decode_hello_reply(payload_of(encode_hello_reply(rep)));
  EXPECT_EQ(rback.accepted, rep.accepted);
  EXPECT_EQ(rback.message, rep.message);
  EXPECT_EQ(rback.model_version, rep.model_version);
  EXPECT_EQ(rback.dims, rep.dims);
  EXPECT_EQ(rback.session_token, rep.session_token);
  EXPECT_EQ(rback.last_applied_seq, rep.last_applied_seq);
  EXPECT_TRUE(rback.resumed);
}

TEST(NetProtocol, SampleBatchRoundTripPreservesBitPatterns) {
  SampleBatch batch;
  batch.batch_seq = 0x0123456789ABCDEFull;
  batch.first_tick = 0xDEADBEEF;
  batch.ticks.resize(3);
  for (int i = 0; i < 3; ++i) batch.ticks[i].tiers.resize(2);
  batch.ticks[0].tiers[0] = {true, {1.0, -0.0, 1e-300, 2.5}};
  batch.ticks[0].tiers[1] = {false, {}};
  batch.ticks[1].tiers[0] = {
      true,
      {std::numeric_limits<double>::quiet_NaN(),
       std::numeric_limits<double>::infinity(), -1e308, 0.1}};
  batch.ticks[1].tiers[1] = {true, {0.0, 0.0, 0.0, 0.0}};
  batch.ticks[2].tiers[0] = {false, {}};
  batch.ticks[2].tiers[1] = {true, {5.0, 6.0, 7.0, 8.0}};

  const auto back = decode_sample_batch(payload_of(encode_sample_batch(batch)));
  ASSERT_EQ(back.batch_seq, batch.batch_seq);
  ASSERT_EQ(back.first_tick, batch.first_tick);
  ASSERT_EQ(back.ticks.size(), batch.ticks.size());
  for (std::size_t i = 0; i < batch.ticks.size(); ++i) {
    ASSERT_EQ(back.ticks[i].tiers.size(), batch.ticks[i].tiers.size());
    for (std::size_t t = 0; t < 2; ++t) {
      const auto& a = batch.ticks[i].tiers[t];
      const auto& b = back.ticks[i].tiers[t];
      ASSERT_EQ(b.present, a.present);
      ASSERT_EQ(b.values.size(), a.values.size());
      for (std::size_t k = 0; k < a.values.size(); ++k) {
        // Bit-exact including NaN payloads and signed zero.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b.values[k]),
                  std::bit_cast<std::uint64_t>(a.values[k]));
      }
    }
  }
}

TEST(NetProtocol, DecisionRoundTrip) {
  DecisionFrame d;
  d.window_index = 41;
  d.state = 1;
  d.confident = 1;
  d.degraded = 1;
  d.hc = -13;
  d.bottleneck_tier = -1;
  d.staleness = 1 << 20;
  const auto back = decode_decision(payload_of(encode_decision(d)));
  EXPECT_EQ(back.window_index, d.window_index);
  EXPECT_EQ(back.state, d.state);
  EXPECT_EQ(back.confident, d.confident);
  EXPECT_EQ(back.degraded, d.degraded);
  EXPECT_EQ(back.hc, d.hc);
  EXPECT_EQ(back.bottleneck_tier, d.bottleneck_tier);
  EXPECT_EQ(back.staleness, d.staleness);
}

TEST(NetProtocol, AckRoundTripIsV2Only) {
  AckFrame ack;
  ack.last_applied_seq = 0x123456789ull;
  ack.next_window = 0xCAFE;
  const auto back = decode_ack(payload_of(encode_ack(ack)));
  EXPECT_EQ(back.last_applied_seq, ack.last_applied_seq);
  EXPECT_EQ(back.next_window, ack.next_window);
  // A v1 header naming the ACK type is rejected outright.
  Bytes bad = encode_ack(ack);
  bad[4] = 1;  // claim v1 on an ACK frame
  EXPECT_THROW(peek_header(bad), ProtocolError);
}

TEST(NetProtocol, StatsAndReloadRoundTrip) {
  StatsReply stats;
  stats.entries = {{"decisions", 123456789012345ull}, {"windows", 0}};
  const auto sback = decode_stats_reply(payload_of(encode_stats_reply(stats)));
  EXPECT_EQ(sback.entries, stats.entries);
  EXPECT_EQ(sback.value("decisions"), 123456789012345ull);
  EXPECT_EQ(sback.value("absent-key"), 0u);

  ReloadRequest req{"/models/new.hpcap"};
  EXPECT_EQ(decode_reload_request(payload_of(encode_reload_request(req))).path,
            req.path);
  ReloadReply rep{true, 3, "model reloaded"};
  const auto rback =
      decode_reload_reply(payload_of(encode_reload_reply(rep)));
  EXPECT_EQ(rback.ok, rep.ok);
  EXPECT_EQ(rback.model_version, rep.model_version);
  EXPECT_EQ(rback.message, rep.message);
}

TEST(NetProtocol, AggregateFramesRoundTripAndRejectV1) {
  AggregateSubscribe sub;
  sub.leaf = "rack7/leaf2";
  sub.synopses = {0, 3, 4};
  sub.resume_token = 0xfeedfacecafe1234ull;
  sub.resume_from_window = 41;
  const auto sub_bytes = encode_aggregate_subscribe(sub);
  EXPECT_EQ(peek_aggregate_kind(payload_of(sub_bytes)),
            AggregateKind::kSubscribe);
  const auto sub_back = decode_aggregate_subscribe(payload_of(sub_bytes));
  EXPECT_EQ(sub_back.leaf, sub.leaf);
  EXPECT_EQ(sub_back.synopses, sub.synopses);
  EXPECT_EQ(sub_back.resume_token, sub.resume_token);
  EXPECT_EQ(sub_back.resume_from_window, sub.resume_from_window);

  AggregateSubscribeReply rep;
  rep.accepted = true;
  rep.message = "joined";
  rep.model_version = 5;
  rep.num_synopses = 8;
  rep.session_token = 99;
  rep.last_applied_seq = 12;
  rep.resumed = true;
  const auto rep_back =
      decode_aggregate_subscribe_reply(
          payload_of(encode_aggregate_subscribe_reply(rep)));
  EXPECT_EQ(rep_back.accepted, rep.accepted);
  EXPECT_EQ(rep_back.message, rep.message);
  EXPECT_EQ(rep_back.model_version, rep.model_version);
  EXPECT_EQ(rep_back.num_synopses, rep.num_synopses);
  EXPECT_EQ(rep_back.session_token, rep.session_token);
  EXPECT_EQ(rep_back.last_applied_seq, rep.last_applied_seq);
  EXPECT_EQ(rep_back.resumed, rep.resumed);

  AggregateBatch batch;
  batch.agg_seq = 7;
  batch.windows.resize(2);
  batch.windows[0] = {10, {1, 0, 1}, {1, 1, 1}};
  batch.windows[1] = {11, {0, 0, 1}, {1, 0, 1}};  // middle synopsis abstains
  const auto batch_back =
      decode_aggregate_batch(payload_of(encode_aggregate_batch(batch)));
  EXPECT_EQ(batch_back.agg_seq, batch.agg_seq);
  ASSERT_EQ(batch_back.windows.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(batch_back.windows[w].window_index,
              batch.windows[w].window_index);
    EXPECT_EQ(batch_back.windows[w].votes, batch.windows[w].votes);
    EXPECT_EQ(batch_back.windows[w].valid, batch.windows[w].valid);
  }
  // An abstaining cell always decodes with vote 0, whatever was encoded.
  EXPECT_EQ(batch_back.windows[1].votes[1], 0);

  // A v1 header on an AGGREGATE frame is malformed on the receive path.
  Bytes v1 = sub_bytes;
  v1[4] = 1;
  FrameAssembler in;
  in.append(v1.data(), v1.size());
  EXPECT_THROW(in.next(), ProtocolError);
}

TEST(NetProtocol, AggregateDecodersRejectMalformedPayloads) {
  // Wrong kind byte routed to the wrong decoder.
  AggregateSubscribe sub;
  sub.leaf = "x";
  const auto sub_payload = payload_of(encode_aggregate_subscribe(sub));
  EXPECT_THROW(decode_aggregate_subscribe_reply(sub_payload), ProtocolError);
  EXPECT_THROW(decode_aggregate_batch(sub_payload), ProtocolError);

  // Unknown discriminator and empty payload.
  Bytes junk = {9};
  EXPECT_THROW(peek_aggregate_kind(junk), ProtocolError);
  EXPECT_THROW(peek_aggregate_kind(std::span<const std::uint8_t>{}),
               ProtocolError);

  // A vote cell above 2 is malformed; the cell bytes are the payload
  // tail, so patch the last one.
  AggregateBatch batch;
  batch.agg_seq = 1;
  batch.windows.resize(1);
  batch.windows[0] = {0, {1}, {1}};
  Bytes votes = payload_of(encode_aggregate_batch(batch));
  votes.back() = 3;
  EXPECT_THROW(decode_aggregate_batch(votes), ProtocolError);

  // Encoding a vote outside the binary domain is refused.
  batch.windows[0].votes[0] = 2;
  EXPECT_THROW(encode_aggregate_batch(batch), ProtocolError);
  // As is a votes/valid length mismatch.
  batch.windows[0] = {0, {1, 0}, {1}};
  EXPECT_THROW(encode_aggregate_batch(batch), ProtocolError);
}

// --- malformed input ------------------------------------------------------

TEST(NetProtocol, HeaderRejectsBadMagicVersionTypeReserved) {
  Bytes good = encode_stats_request();
  {
    Bytes bad = good;
    bad[0] ^= 0xFF;
    EXPECT_THROW(peek_header(bad), ProtocolError);
  }
  {
    Bytes bad = good;
    bad[4] = 3;  // future protocol version
    EXPECT_THROW(peek_header(bad), ProtocolError);
    bad[4] = 0;  // below the only version
    EXPECT_THROW(peek_header(bad), ProtocolError);
    bad[4] = 1;  // the retired v1
    EXPECT_THROW(peek_header(bad), ProtocolError);
  }
  {
    Bytes bad = good;
    bad[5] = 0;  // frame type below range
    EXPECT_THROW(peek_header(bad), ProtocolError);
    bad[5] = 7;  // ACK
    EXPECT_TRUE(peek_header(bad).has_value());
    bad[5] = 8;  // AGGREGATE: the last type
    EXPECT_TRUE(peek_header(bad).has_value());
    bad[5] = 9;  // above the range
    EXPECT_THROW(peek_header(bad), ProtocolError);
  }
  {
    Bytes bad = good;
    bad[6] = 1;  // reserved must be zero
    EXPECT_THROW(peek_header(bad), ProtocolError);
  }
  {
    Bytes bad = good;
    bad[11] = 0xFF;  // payload_size far above kMaxPayload
    EXPECT_THROW(peek_header(bad), ProtocolError);
  }
  // Fewer than 12 bytes is not an error — just not a header yet.
  EXPECT_FALSE(peek_header({good.data(), kHeaderSize - 1}).has_value());
}

TEST(NetProtocol, EveryTruncationOfEveryFrameThrows) {
  HelloReply rep;
  rep.accepted = true;
  rep.message = "msg";
  rep.dims = {4, 4};
  SampleBatch batch;
  batch.batch_seq = 9;
  batch.ticks.resize(2);
  batch.ticks[0].tiers = {{true, {1.0, 2.0}}, {false, {}}};
  batch.ticks[1].tiers = {{true, {3.0, 4.0}}, {true, {5.0, 6.0}}};
  StatsReply stats;
  stats.entries = {{"k", 1}};
  AckFrame ack{77, 3};

  const std::vector<Bytes> payloads = {
      payload_of(encode_hello_request({"a", "hpc", 2, 30})),
      payload_of(encode_hello_reply(rep)),
      payload_of(encode_sample_batch(batch)),
      payload_of(encode_decision({})),
      payload_of(encode_stats_reply(stats)),
      payload_of(encode_reload_request({"p"})),
      payload_of(encode_reload_reply({true, 1, "ok"})),
      payload_of(encode_ack(ack)),
  };
  using Decoder = void (*)(std::span<const std::uint8_t>);
  const std::vector<Decoder> decoders = {
      [](std::span<const std::uint8_t> p) { decode_hello_request(p); },
      [](std::span<const std::uint8_t> p) { decode_hello_reply(p); },
      [](std::span<const std::uint8_t> p) { decode_sample_batch(p); },
      [](std::span<const std::uint8_t> p) { decode_decision(p); },
      [](std::span<const std::uint8_t> p) { decode_stats_reply(p); },
      [](std::span<const std::uint8_t> p) { decode_reload_request(p); },
      [](std::span<const std::uint8_t> p) { decode_reload_reply(p); },
      [](std::span<const std::uint8_t> p) { decode_ack(p); },
  };
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    for (std::size_t cut = 0; cut < payloads[i].size(); ++cut) {
      EXPECT_THROW(decoders[i]({payloads[i].data(), cut}), ProtocolError)
          << "frame " << i << " truncated at " << cut << " did not throw";
    }
  }
}

TEST(NetProtocol, TrailingGarbageThrows) {
  Bytes p = payload_of(encode_decision({}));
  p.push_back(0);
  EXPECT_THROW(decode_decision(p), ProtocolError);
}

TEST(NetProtocol, HostileCountsThrowBeforeAllocation) {
  {
    // String length claims ~4 GiB with a 4-byte body.
    Bytes p;
    put_u32(p, 0xFFFFFFFFu);
    put_u32(p, 0);
    EXPECT_THROW(decode_reload_request(p), ProtocolError);
  }
  {
    // Tier count above kMaxTiers inside a batch.
    Bytes p;
    put_u64(p, 1);                                         // batch_seq
    put_u32(p, 0);                                         // first_tick
    put_u16(p, 1);                                         // tick_count
    put_u16(p, static_cast<std::uint16_t>(kMaxTiers + 1)); // tier_count
    EXPECT_THROW(decode_sample_batch(p), ProtocolError);
  }
  {
    // Row dim above kMaxRowDim.
    Bytes p;
    put_u64(p, 1);
    put_u32(p, 0);
    put_u16(p, 1);
    put_u16(p, 1);
    put_u8(p, 1);                                            // present
    put_u16(p, static_cast<std::uint16_t>(kMaxRowDim + 1));  // dim
    EXPECT_THROW(decode_sample_batch(p), ProtocolError);
  }
  {
    // Stats entry count above cap.
    Bytes p;
    put_u32(p, static_cast<std::uint32_t>(kMaxStatsEntries + 1));
    EXPECT_THROW(decode_stats_reply(p), ProtocolError);
  }
  {
    // Oversized string refuses to encode, too.
    ReloadRequest req;
    req.path.assign(kMaxString + 1, 'x');
    EXPECT_THROW(encode_reload_request(req), ProtocolError);
  }
}

TEST(NetProtocol, DecisionRejectsNonzeroReservedByte) {
  Bytes p = payload_of(encode_decision({}));
  p[7] = 1;  // the u8 reserved slot after state/confident/degraded
  EXPECT_THROW(decode_decision(p), ProtocolError);
}

// --- FrameAssembler -------------------------------------------------------

TEST(NetProtocol, AssemblerYieldsFramesFedByteAtATime) {
  const Bytes f1 = encode_hello_request({"a", "hpc", 2, 30});
  const Bytes f2 = encode_stats_request();
  Bytes stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameAssembler asm_;
  std::vector<Frame> got;
  for (std::uint8_t b : stream) {
    asm_.append(&b, 1);
    while (auto f = asm_.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, FrameType::kHello);
  EXPECT_EQ(got[1].type, FrameType::kStats);
  EXPECT_EQ(got[0].payload.size(), f1.size() - kHeaderSize - kCrcSize);
  EXPECT_EQ(got[1].payload.size(), 0u);
  EXPECT_EQ(asm_.buffered(), 0u);
  const auto req = decode_hello_request(got[0].payload);
  EXPECT_EQ(req.agent, "a");
}

TEST(NetProtocol, AssemblerThrowsOnCorruptStream) {
  FrameAssembler asm_;
  const Bytes junk(64, 0x5A);
  asm_.append(junk.data(), junk.size());
  EXPECT_THROW(asm_.next(), ProtocolError);
}

TEST(NetProtocol, EverySingleByteFlipOnV2FrameIsDetected) {
  // The CRC trailer exists so silent corruption can never alter a value:
  // flip each byte of a v2 frame in turn and the assembler must reject
  // the frame (header validation or checksum mismatch — never a clean
  // decode of damaged bytes). Two inputs: a 28-byte ACK, and an
  // odd-length SAMPLE_BATCH (3 ticks x 3 tiers x dim 5, two missing slots:
  // a 339-byte frame whose 335 checksummed bytes are 41 whole 8-byte
  // blocks plus a 7-byte tail), so flips land in every lane of many
  // blocks and in every tail position.
  AckFrame ack{0x1122334455667788ull, 42};
  SampleBatch batch;
  batch.batch_seq = 7;
  batch.first_tick = 100;
  batch.ticks.resize(3);
  for (std::size_t t = 0; t < 3; ++t) {
    batch.ticks[t].tiers.resize(3);
    for (std::size_t k = 0; k < 3; ++k) {
      auto& slot = batch.ticks[t].tiers[k];
      slot.present = !((t == 1 && k == 2) || (t == 2 && k == 0));
      if (!slot.present) continue;
      for (int d = 0; d < 5; ++d)
        slot.values.push_back(static_cast<double>(t * 100 + k * 10) + d);
    }
  }
  const Bytes batch_frame = encode_sample_batch(batch);
  ASSERT_EQ(batch_frame.size(), 339u);
  for (const Bytes& good : {encode_ack(ack), batch_frame}) {
    for (std::size_t i = 0; i < good.size(); ++i) {
      for (const std::uint8_t flip :
           {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
        Bytes bad = good;
        bad[i] = static_cast<std::uint8_t>(bad[i] ^ flip);
        FrameAssembler asm_;
        asm_.append(bad.data(), bad.size());
        bool rejected = false;
        try {
          while (auto f = asm_.next()) {
            ADD_FAILURE() << "flipped byte " << i << " of a " << good.size()
                          << "-byte frame yielded a complete frame";
          }
        } catch (const ProtocolError&) {
          rejected = true;
        }
        // Growing the claimed payload length just leaves the assembler
        // waiting for bytes that never come — also safe. Everything else
        // must have thrown.
        if (!rejected) {
          EXPECT_GT(asm_.buffered(), 0u)
              << "flipped byte " << i << " of a " << good.size()
              << "-byte frame was silently accepted";
        }
      }
    }
  }
}

TEST(NetProtocol, AssemblerSurvivesManyFramesWithoutGrowth) {
  FrameAssembler asm_;
  const Bytes f = encode_stats_request();
  for (int i = 0; i < 10000; ++i) {
    asm_.append(f.data(), f.size());
    const auto got = asm_.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, FrameType::kStats);
  }
  EXPECT_EQ(asm_.buffered(), 0u);
}

}  // namespace
}  // namespace hpcap::net

// Wire-protocol unit tests: encode/decode round trips for every frame
// type at both protocol versions, golden little-endian byte layouts (so
// the format is pinned, not just self-consistent), CRC-32 integrity on
// v2 frames, malformed-input rejection, and incremental stream assembly.
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

// Strips the 12-byte header — and on v2 the 4-byte CRC trailer — off a
// full encoded frame, leaving the bare payload.
Bytes payload_of(const Bytes& frame,
                 std::uint8_t version = kProtocolVersion) {
  const std::size_t tail = version >= 2 ? kCrcSize : 0;
  return Bytes(frame.begin() + kHeaderSize, frame.end() - tail);
}

TEST(NetProtocol, GoldenHeaderLayoutV1) {
  const Bytes frame = encode_stats_request(1);
  ASSERT_EQ(frame.size(), kHeaderSize);
  // magic 0x48504341 little-endian = "ACPH" on the wire.
  const Bytes expected = {0x41, 0x43, 0x50, 0x48,  // magic
                          0x01,                    // version
                          0x04,                    // type = STATS
                          0x00, 0x00,              // reserved
                          0x00, 0x00, 0x00, 0x00}; // payload_size
  EXPECT_EQ(frame, expected);
}

TEST(NetProtocol, GoldenHeaderLayoutV2CarriesCrcTrailer) {
  const Bytes frame = encode_stats_request(2);
  ASSERT_EQ(frame.size(), kHeaderSize + kCrcSize);
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
}

// Bit-at-a-time CRC-32 straight from the polynomial: the definition the
// table-driven kernel must reproduce.
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
  // blocks, each 0-7 byte tail, and unaligned starts.
  std::mt19937 rng(20081);
  Bytes buf(300 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + off, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s))
          << "offset " << off << " length " << len;
    }
  }
  Bytes big(64 * 1024);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(crc32(big), crc32_bitwise(big));
}

TEST(NetProtocol, GoldenHelloRequestBytesV1) {
  HelloRequest req;
  req.agent = "a";
  req.level = "os";
  req.num_tiers = 2;
  req.window = 0x1234;
  const Bytes frame = encode_hello_request(req, 1);
  const Bytes expected = {
      0x41, 0x43, 0x50, 0x48, 0x01, 0x01, 0x00, 0x00,  // header
      0x0f, 0x00, 0x00, 0x00,                          // payload = 15
      0x01, 0x00, 0x00, 0x00, 'a',                     // str agent
      0x02, 0x00, 0x00, 0x00, 'o',  's',               // str level
      0x02, 0x00,                                      // u16 num_tiers
      0x34, 0x12,                                      // u16 window (LE)
  };
  EXPECT_EQ(frame, expected);
}

TEST(NetProtocol, GoldenHelloRequestBytesV2) {
  HelloRequest req;
  req.agent = "a";
  req.level = "os";
  req.num_tiers = 2;
  req.window = 0x1234;
  req.resume_token = 0x1122334455667788ull;
  req.resume_from_window = 0xA1B2C3D4u;
  const Bytes frame = encode_hello_request(req, 2);
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

TEST(NetProtocol, HelloRoundTripBothVersions) {
  HelloRequest req;
  req.agent = "app-tier-agent";
  req.level = "hpc";
  req.num_tiers = 2;
  req.window = 30;
  req.resume_token = 0xFEEDBEEFull;
  req.resume_from_window = 99;
  for (const std::uint8_t v : {std::uint8_t{1}, std::uint8_t{2}}) {
    const auto back =
        decode_hello_request(payload_of(encode_hello_request(req, v), v), v);
    EXPECT_EQ(back.agent, req.agent);
    EXPECT_EQ(back.level, req.level);
    EXPECT_EQ(back.num_tiers, req.num_tiers);
    EXPECT_EQ(back.window, req.window);
    if (v >= 2) {
      EXPECT_EQ(back.resume_token, req.resume_token);
      EXPECT_EQ(back.resume_from_window, req.resume_from_window);
    } else {
      // v1 wire format has no resume fields; they decode as zero.
      EXPECT_EQ(back.resume_token, 0u);
      EXPECT_EQ(back.resume_from_window, 0u);
    }
  }

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
  for (const std::uint8_t v : {std::uint8_t{1}, std::uint8_t{2}}) {
    const auto rback =
        decode_hello_reply(payload_of(encode_hello_reply(rep, v), v), v);
    EXPECT_EQ(rback.accepted, rep.accepted);
    EXPECT_EQ(rback.message, rep.message);
    EXPECT_EQ(rback.model_version, rep.model_version);
    EXPECT_EQ(rback.dims, rep.dims);
    if (v >= 2) {
      EXPECT_EQ(rback.session_token, rep.session_token);
      EXPECT_EQ(rback.last_applied_seq, rep.last_applied_seq);
      EXPECT_TRUE(rback.resumed);
    } else {
      EXPECT_EQ(rback.session_token, 0u);
      EXPECT_EQ(rback.last_applied_seq, 0u);
      EXPECT_FALSE(rback.resumed);
    }
  }
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

  for (const std::uint8_t v : {std::uint8_t{1}, std::uint8_t{2}}) {
    const auto back =
        decode_sample_batch(payload_of(encode_sample_batch(batch, v), v), v);
    // batch_seq exists on the v2 wire only.
    ASSERT_EQ(back.batch_seq, v >= 2 ? batch.batch_seq : 0u);
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
  for (const std::uint8_t v : {std::uint8_t{1}, std::uint8_t{2}}) {
    const auto back = decode_decision(payload_of(encode_decision(d, v), v));
    EXPECT_EQ(back.window_index, d.window_index);
    EXPECT_EQ(back.state, d.state);
    EXPECT_EQ(back.confident, d.confident);
    EXPECT_EQ(back.degraded, d.degraded);
    EXPECT_EQ(back.hc, d.hc);
    EXPECT_EQ(back.bottleneck_tier, d.bottleneck_tier);
    EXPECT_EQ(back.staleness, d.staleness);
  }
}

TEST(NetProtocol, AckRoundTripIsV2Only) {
  AckFrame ack;
  ack.last_applied_seq = 0x123456789ull;
  ack.next_window = 0xCAFE;
  const auto back = decode_ack(payload_of(encode_ack(ack, 2), 2));
  EXPECT_EQ(back.last_applied_seq, ack.last_applied_seq);
  EXPECT_EQ(back.next_window, ack.next_window);
  // ACK frames do not exist on the v1 wire: encoding one at v1 throws,
  // and a v1 header naming the ACK type is rejected outright.
  EXPECT_THROW(encode_ack(ack, 1), ProtocolError);
  Bytes bad = encode_ack(ack, 2);
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

  // v2-only: no v1 encoding exists.
  EXPECT_THROW(encode_aggregate_subscribe(sub, 1), ProtocolError);
  EXPECT_THROW(encode_aggregate_subscribe_reply(rep, 1), ProtocolError);
  EXPECT_THROW(encode_aggregate_batch(batch, 1), ProtocolError);
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
  Bytes good = encode_stats_request(1);
  {
    Bytes bad = good;
    bad[0] ^= 0xFF;
    EXPECT_THROW(peek_header(bad), ProtocolError);
  }
  {
    Bytes bad = good;
    bad[4] = 3;  // future protocol version
    EXPECT_THROW(peek_header(bad), ProtocolError);
    bad[4] = 0;  // below the minimum
    EXPECT_THROW(peek_header(bad), ProtocolError);
  }
  {
    Bytes bad = good;
    bad[5] = 0;  // frame type below range
    EXPECT_THROW(peek_header(bad), ProtocolError);
    bad[5] = 7;  // ACK: above the v1 range
    EXPECT_THROW(peek_header(bad), ProtocolError);
    bad[4] = 2;  // ...but valid at v2
    EXPECT_TRUE(peek_header(bad).has_value());
    bad[5] = 8;  // AGGREGATE: likewise v2-only
    EXPECT_TRUE(peek_header(bad).has_value());
    bad[4] = 1;
    EXPECT_THROW(peek_header(bad), ProtocolError);
    bad[4] = 2;
    bad[5] = 9;  // above the v2 range
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

  for (const std::uint8_t v : {std::uint8_t{1}, std::uint8_t{2}}) {
    std::vector<Bytes> payloads = {
        payload_of(encode_hello_request({"a", "hpc", 2, 30}, v), v),
        payload_of(encode_hello_reply(rep, v), v),
        payload_of(encode_sample_batch(batch, v), v),
        payload_of(encode_decision({}, v), v),
        payload_of(encode_stats_reply(stats, v), v),
        payload_of(encode_reload_request({"p"}, v), v),
        payload_of(encode_reload_reply({true, 1, "ok"}, v), v),
    };
    using Decoder = void (*)(std::span<const std::uint8_t>, std::uint8_t);
    std::vector<Decoder> decoders = {
        [](std::span<const std::uint8_t> p, std::uint8_t ver) {
          decode_hello_request(p, ver);
        },
        [](std::span<const std::uint8_t> p, std::uint8_t ver) {
          decode_hello_reply(p, ver);
        },
        [](std::span<const std::uint8_t> p, std::uint8_t ver) {
          decode_sample_batch(p, ver);
        },
        [](std::span<const std::uint8_t> p, std::uint8_t) {
          decode_decision(p);
        },
        [](std::span<const std::uint8_t> p, std::uint8_t) {
          decode_stats_reply(p);
        },
        [](std::span<const std::uint8_t> p, std::uint8_t) {
          decode_reload_request(p);
        },
        [](std::span<const std::uint8_t> p, std::uint8_t) {
          decode_reload_reply(p);
        },
    };
    if (v >= 2) {
      payloads.push_back(payload_of(encode_ack(ack, v), v));
      decoders.push_back([](std::span<const std::uint8_t> p, std::uint8_t) {
        decode_ack(p);
      });
    }
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      for (std::size_t cut = 0; cut < payloads[i].size(); ++cut) {
        EXPECT_THROW(decoders[i]({payloads[i].data(), cut}, v), ProtocolError)
            << "v" << int{v} << " frame " << i << " truncated at " << cut
            << " did not throw";
      }
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
    // Tier count above kMaxTiers inside a batch (v1: no seq prefix).
    Bytes p;
    put_u32(p, 0);                                         // first_tick
    put_u16(p, 1);                                         // tick_count
    put_u16(p, static_cast<std::uint16_t>(kMaxTiers + 1)); // tier_count
    EXPECT_THROW(decode_sample_batch(p, 1), ProtocolError);
  }
  {
    // Row dim above kMaxRowDim.
    Bytes p;
    put_u32(p, 0);
    put_u16(p, 1);
    put_u16(p, 1);
    put_u8(p, 1);                                            // present
    put_u16(p, static_cast<std::uint16_t>(kMaxRowDim + 1));  // dim
    EXPECT_THROW(decode_sample_batch(p, 1), ProtocolError);
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
  // A mixed-version stream: v1 and v2 frames interleave freely on one
  // connection during version negotiation.
  const Bytes f1 = encode_hello_request({"a", "hpc", 2, 30});  // v2
  const Bytes f2 = encode_stats_request(1);                    // v1
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
  EXPECT_EQ(got[0].version, kProtocolVersion);
  EXPECT_EQ(got[1].type, FrameType::kStats);
  EXPECT_EQ(got[1].version, 1);
  EXPECT_EQ(got[0].payload.size(), f1.size() - kHeaderSize - kCrcSize);
  EXPECT_EQ(got[1].payload.size(), 0u);
  EXPECT_EQ(asm_.buffered(), 0u);
  const auto req = decode_hello_request(got[0].payload, got[0].version);
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
  const Bytes batch_frame = encode_sample_batch(batch, 2);
  ASSERT_EQ(batch_frame.size(), 339u);
  for (const Bytes& good : {encode_ack(ack, 2), batch_frame}) {
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

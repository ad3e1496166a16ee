// Exactly-once session resume and the backoff schedule — the
// protocol-level half (net_chaos_test covers the end-to-end half).
//
// The raw-socket tests drive the server with handcrafted frames so
// every resume transition is pinned at the byte level: fresh HELLO mints
// a token, an abrupt close parks the session, a resume HELLO replays the
// retained DECISION tail bit-for-bit, a replayed batch is deduped (ACK
// only, no duplicate decisions), a sequence gap drops the peer, and an
// expired token is rejected after the linger sweep reclaims the session.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/monitor_source.h"
#include "core/pipeline.h"
#include "counters/metric_catalog.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/retry.h"
#include "net/server.h"
#include "util/rng.h"

namespace hpcap {
namespace {

using net::DecisionFrame;
using net::Frame;
using net::FrameType;
using net::SampleBatch;
using net::Tick;

// --- backoff schedule unit tests ------------------------------------------

TEST(RetryPolicy, NoneIsDisabledAndDefaultIsEnabled) {
  EXPECT_FALSE(net::RetryPolicy::none().enabled());
  EXPECT_TRUE(net::RetryPolicy{}.enabled());
}

TEST(Backoff, SameSeedSameSchedule) {
  net::RetryPolicy policy;
  net::Backoff a(policy, 7);
  net::Backoff b(policy, 7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next_delay(), b.next_delay());
}

TEST(Backoff, SaltsDecorrelateConcurrentSessions) {
  net::RetryPolicy policy;
  net::Backoff a(policy, 1);
  net::Backoff b(policy, 2);
  bool differed = false;
  for (int i = 0; i < 8; ++i)
    if (a.next_delay() != b.next_delay()) differed = true;
  EXPECT_TRUE(differed);
}

TEST(Backoff, GrowsExponentiallyAndCapsWithoutJitter) {
  net::RetryPolicy policy;
  policy.initial_backoff = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 0.05;
  policy.jitter = 0.0;
  policy.max_attempts = 6;
  net::Backoff backoff(policy);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.01);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.02);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.04);
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.05);  // capped
  EXPECT_DOUBLE_EQ(backoff.next_delay(), 0.05);
  EXPECT_FALSE(backoff.exhausted());
  backoff.next_delay();
  EXPECT_TRUE(backoff.exhausted());
  EXPECT_EQ(backoff.attempts(), 6);
}

TEST(Backoff, JitterStaysWithinTheConfiguredBand) {
  net::RetryPolicy policy;
  policy.initial_backoff = 0.1;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff = 0.1;
  policy.jitter = 0.25;
  policy.max_attempts = 1000;
  net::Backoff backoff(policy, 3);
  for (int i = 0; i < 1000; ++i) {
    const double d = backoff.next_delay();
    EXPECT_GE(d, 0.1 * 0.75);
    EXPECT_LT(d, 0.1 * 1.25);
  }
}

// --- fixtures -------------------------------------------------------------

std::size_t catalog_dim() { return counters::hpc_catalog().size(); }

ml::Dataset tier_dataset(std::uint64_t seed) {
  const std::size_t dim = catalog_dim();
  std::vector<std::string> names(dim);
  for (std::size_t i = 0; i < dim; ++i) names[i] = "m" + std::to_string(i);
  ml::Dataset d(names);
  Rng rng(seed);
  std::vector<double> row(dim);
  for (int i = 0; i < 240; ++i) {
    const int y = i % 2;
    for (std::size_t k = 0; k < dim; ++k) row[k] = rng.uniform();
    row[0] = y + rng.normal(0.0, 0.2);
    row[2] = y + rng.normal(0.0, 0.3);
    d.add(row, y);
  }
  return d;
}

const std::string& bundle() {
  static const std::string bytes = [] {
    core::SynopsisBuilder builder;
    std::vector<core::Synopsis> synopses;
    synopses.push_back(builder.build(
        tier_dataset(33), {"mix", "app", 0, "hpc", ml::LearnerKind::kTan}));
    synopses.push_back(builder.build(
        tier_dataset(35), {"mix", "db", 1, "hpc", ml::LearnerKind::kTan}));
    core::CoordinatedPredictor::Options opts;
    opts.num_tiers = 2;
    opts.synopsis_tiers = {0, 1};
    core::CapacityMonitor monitor(std::move(synopses), opts);
    Rng rng(38);
    std::vector<std::vector<double>> rows(
        2, std::vector<double>(catalog_dim()));
    for (int i = 0; i < 60; ++i) {
      const int label = i % 2;
      for (auto& r : rows) {
        for (auto& v : r) v = rng.uniform();
        r[0] = label + rng.normal(0.0, 0.2);
        r[2] = label + rng.normal(0.0, 0.3);
      }
      monitor.train_instance(rows, label, label ? 1 : -1);
    }
    monitor.end_training_run();
    std::ostringstream os;
    core::save_monitor(os, monitor);
    return os.str();
  }();
  return bytes;
}

struct Harness {
  core::MonitorSource source;
  net::EventLoop loop;
  std::optional<net::Server> server;
  std::thread thread;
  std::atomic<bool> want_stop{false};

  Harness(core::MonitorSource src, net::ServerConfig cfg)
      : source(std::move(src)) {
    server.emplace(loop, source, cfg);
    loop.set_wake_handler([this] {
      if (want_stop.exchange(false)) server->begin_shutdown();
    });
    server->start();
    thread = std::thread([this] { loop.run(); });
  }

  ~Harness() { stop(); }

  void stop() {
    if (!thread.joinable()) return;
    want_stop = true;
    loop.wake();
    thread.join();
  }

  std::uint16_t port() const { return server->port(); }
};

net::ServerConfig test_config() {
  net::ServerConfig cfg;
  cfg.num_tiers = 2;
  cfg.shutdown_grace = 1.0;
  cfg.sweep_period = 0.1;
  return cfg;
}

std::vector<Tick> make_ticks(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tick> ticks(static_cast<std::size_t>(count));
  for (auto& tick : ticks) {
    tick.tiers.resize(2);
    for (auto& slot : tick.tiers) {
      slot.present = true;
      slot.values.resize(catalog_dim());
      for (auto& v : slot.values) v = rng.uniform();
    }
  }
  return ticks;
}

// --- raw framed connection ------------------------------------------------

struct RawConn {
  int fd = -1;
  net::FrameAssembler assembler;

  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }

  ~RawConn() { close(); }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // Next complete frame, or nullopt on EOF/timeout.
  std::optional<Frame> next_frame(int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (auto frame = assembler.next()) return frame;
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      pollfd p{fd, POLLIN, 0};
      const int r = ::poll(&p, 1, 100);
      if (r <= 0) continue;
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n == 0) return std::nullopt;
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return std::nullopt;
      }
      assembler.append(buf, static_cast<std::size_t>(n));
    }
  }

  // Collects `count` DECISION frames, skipping interleaved ACKs (the
  // v2 daemon acknowledges batches on its own schedule).
  std::vector<DecisionFrame> read_decisions(std::size_t count) {
    std::vector<DecisionFrame> out;
    while (out.size() < count) {
      auto frame = next_frame();
      if (!frame) {
        ADD_FAILURE() << "stream ended after " << out.size() << " of "
                      << count << " decisions";
        return out;
      }
      if (frame->type == FrameType::kAck) continue;
      EXPECT_EQ(static_cast<int>(frame->type),
                static_cast<int>(FrameType::kDecision));
      out.push_back(net::decode_decision(frame->payload));
    }
    return out;
  }

  // Waits for the daemon to drop us (clean EOF or abortive reset).
  bool wait_for_disconnect(int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::uint8_t buf[4096];
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n == 0) return true;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return errno == ECONNRESET || errno == EPIPE;
    }
    return false;
  }
};

net::HelloRequest raw_hello(std::uint64_t resume_token = 0,
                            std::uint32_t resume_from = 0) {
  net::HelloRequest req;
  req.agent = "raw";
  req.level = "hpc";
  req.num_tiers = 2;
  req.window = 1;  // one decision per tick keeps the arithmetic obvious
  req.resume_token = resume_token;
  req.resume_from_window = resume_from;
  return req;
}

void expect_same(const DecisionFrame& a, const DecisionFrame& b) {
  EXPECT_EQ(a.window_index, b.window_index);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.confident, b.confident);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.hc, b.hc);
  EXPECT_EQ(a.bottleneck_tier, b.bottleneck_tier);
  EXPECT_EQ(a.staleness, b.staleness);
}

// --- the resume state machine, byte by byte -------------------------------

TEST(NetResume, ResumeReplaysRetainedDecisionsAndDedupsReplayedBatches) {
  Harness h(core::MonitorSource::from_bytes(bundle()), test_config());
  const auto ticks = make_ticks(10, 41);

  // Fresh v2 session: 2 batches x 4 ticks = windows 0..7 decided.
  RawConn first(h.port());
  first.send(net::encode_hello_request(raw_hello()));
  auto reply_frame = first.next_frame();
  ASSERT_TRUE(reply_frame.has_value());
  const auto reply = net::decode_hello_reply(reply_frame->payload);
  ASSERT_TRUE(reply.accepted) << reply.message;
  ASSERT_NE(reply.session_token, 0u);
  EXPECT_FALSE(reply.resumed);
  const std::uint64_t token = reply.session_token;

  SampleBatch batch;
  batch.batch_seq = 1;
  batch.first_tick = 0;
  batch.ticks.assign(ticks.begin(), ticks.begin() + 4);
  first.send(net::encode_sample_batch(batch));
  batch.batch_seq = 2;
  batch.first_tick = 4;
  batch.ticks.assign(ticks.begin() + 4, ticks.begin() + 8);
  const auto batch2_bytes = net::encode_sample_batch(batch);
  first.send(batch2_bytes);
  const auto original = first.read_decisions(8);
  ASSERT_EQ(original.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(original[i].window_index, static_cast<std::uint32_t>(i));

  // Vanish abruptly; the daemon parks the session for the linger window.
  first.close();

  // Resume claiming we only consumed windows 0..5: the daemon must
  // replay 6 and 7 bit-for-bit before anything new.
  RawConn second(h.port());
  second.send(net::encode_hello_request(raw_hello(token, 6)));
  auto resumed_frame = second.next_frame();
  ASSERT_TRUE(resumed_frame.has_value());
  const auto resumed = net::decode_hello_reply(resumed_frame->payload);
  ASSERT_TRUE(resumed.accepted) << resumed.message;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.session_token, token);
  EXPECT_EQ(resumed.last_applied_seq, 2u);
  const auto replayed = second.read_decisions(2);
  ASSERT_EQ(replayed.size(), 2u);
  expect_same(replayed[0], original[6]);
  expect_same(replayed[1], original[7]);

  // Retransmit batch 2 (the client cannot know it was applied): the
  // daemon dedups it — an ACK comes back, but no duplicate decisions.
  second.send(batch2_bytes);
  // New data applies exactly after the dedup: windows 8 and 9.
  batch.batch_seq = 3;
  batch.first_tick = 8;
  batch.ticks.assign(ticks.begin() + 8, ticks.begin() + 10);
  second.send(net::encode_sample_batch(batch));
  const auto fresh = second.read_decisions(2);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].window_index, 8u);
  EXPECT_EQ(fresh[1].window_index, 9u);

  // The daemon's own ledger agrees.
  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  ASSERT_TRUE(observer.hello({"observer", "hpc", 2, 1}).accepted);
  const auto stats = observer.stats();
  EXPECT_EQ(stats.value("sessions_detached"), 1u);
  EXPECT_EQ(stats.value("sessions_resumed"), 1u);
  EXPECT_GE(stats.value("batches_deduped"), 1u);
  EXPECT_EQ(stats.value("sessions_expired"), 0u);
}

TEST(NetResume, BatchSequenceGapDropsThePeer) {
  Harness h(core::MonitorSource::from_bytes(bundle()), test_config());
  const auto ticks = make_ticks(4, 43);

  RawConn conn(h.port());
  conn.send(net::encode_hello_request(raw_hello()));
  ASSERT_TRUE(conn.next_frame().has_value());

  SampleBatch batch;
  batch.batch_seq = 1;
  batch.first_tick = 0;
  batch.ticks.assign(ticks.begin(), ticks.begin() + 2);
  conn.send(net::encode_sample_batch(batch));
  batch.batch_seq = 3;  // skips 2: an exactly-once hole the daemon must
  batch.first_tick = 2;  // refuse rather than silently accept
  batch.ticks.assign(ticks.begin() + 2, ticks.begin() + 4);
  conn.send(net::encode_sample_batch(batch));
  EXPECT_TRUE(conn.wait_for_disconnect())
      << "daemon kept streaming across a batch sequence gap";
}

TEST(NetResume, LingerSweepExpiresUnresumedSessionsAndRejectsStaleTokens) {
  net::ServerConfig cfg = test_config();
  cfg.session_linger = 0.3;
  cfg.sweep_period = 0.05;
  Harness h(core::MonitorSource::from_bytes(bundle()), cfg);

  RawConn conn(h.port());
  conn.send(net::encode_hello_request(raw_hello()));
  auto reply_frame = conn.next_frame();
  ASSERT_TRUE(reply_frame.has_value());
  const auto reply = net::decode_hello_reply(reply_frame->payload);
  ASSERT_TRUE(reply.accepted);
  const std::uint64_t token = reply.session_token;
  conn.close();  // park it; nobody comes back in time

  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  ASSERT_TRUE(observer.hello({"observer", "hpc", 2, 1}).accepted);
  std::uint64_t expired = 0;
  for (int i = 0; i < 200 && expired == 0; ++i) {
    expired = observer.stats().value("sessions_expired");
    if (expired == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(expired, 1u) << "linger sweep never reclaimed the session";
  EXPECT_EQ(observer.stats().value("sessions_lingering"), 0u);

  // The dead token is gone for good: a resume attempt is rejected, not
  // silently turned into a fresh session.
  RawConn late(h.port());
  late.send(net::encode_hello_request(raw_hello(token, 0)));
  auto late_frame = late.next_frame();
  ASSERT_TRUE(late_frame.has_value());
  const auto late_reply = net::decode_hello_reply(late_frame->payload);
  EXPECT_FALSE(late_reply.accepted);
  EXPECT_NE(late_reply.message.find("resume token"), std::string::npos)
      << late_reply.message;
  EXPECT_EQ(observer.stats().value("resume_rejected"), 1u);
}

TEST(NetResume, RefusedResumeRepliesWithTheClaimReason) {
  Harness h(core::MonitorSource::from_bytes(bundle()), test_config());
  RawConn first(h.port());
  first.send(net::encode_hello_request(raw_hello()));
  auto reply_frame = first.next_frame();
  ASSERT_TRUE(reply_frame.has_value());
  const auto reply = net::decode_hello_reply(reply_frame->payload);
  ASSERT_TRUE(reply.accepted);
  const std::uint64_t token = reply.session_token;
  first.close();  // park it

  // Each refused ask is answered with the reason the claim found, and
  // leaves the session lingering for a matching one.
  const auto refused_hello = [&](const net::HelloRequest& req,
                                 const char* why) {
    RawConn conn(h.port());
    conn.send(net::encode_hello_request(req));
    auto frame = conn.next_frame();
    ASSERT_TRUE(frame.has_value());
    const auto rep = net::decode_hello_reply(frame->payload);
    EXPECT_FALSE(rep.accepted);
    EXPECT_NE(rep.message.find(why), std::string::npos) << rep.message;
  };
  net::HelloRequest other_window = raw_hello(token, 0);
  other_window.window = 2;
  refused_hello(other_window, "do not match");
  refused_hello(raw_hello(token, 5), "outside the retained decision window");

  net::AggregateSubscribe sub;
  sub.leaf = "raw";
  sub.synopses = {0};
  sub.resume_token = token;
  RawConn agg(h.port());
  agg.send(net::encode_aggregate_subscribe(sub));
  auto agg_frame = agg.next_frame();
  ASSERT_TRUE(agg_frame.has_value());
  const auto agg_reply =
      net::decode_aggregate_subscribe_reply(agg_frame->payload);
  EXPECT_FALSE(agg_reply.accepted);
  EXPECT_NE(agg_reply.message.find("sampling session"), std::string::npos)
      << agg_reply.message;

  RawConn resumed(h.port());
  resumed.send(net::encode_hello_request(raw_hello(token, 0)));
  auto resumed_frame = resumed.next_frame();
  ASSERT_TRUE(resumed_frame.has_value());
  EXPECT_TRUE(net::decode_hello_reply(resumed_frame->payload).resumed);

  net::Client observer;
  observer.connect("127.0.0.1", h.port());
  ASSERT_TRUE(observer.hello({"observer", "hpc", 2, 1}).accepted);
  EXPECT_EQ(observer.stats().value("resume_rejected"), 3u);
}

TEST(NetResume, SessionTokensAreUniqueAndNonZero) {
  Harness h(core::MonitorSource::from_bytes(bundle()), test_config());
  std::set<std::uint64_t> tokens;
  for (int i = 0; i < 8; ++i) {
    net::Client client;
    client.connect("127.0.0.1", h.port());
    ASSERT_TRUE(
        client.hello({"tok-" + std::to_string(i), "hpc", 2, 4}).accepted);
    const std::uint64_t token = client.session().token;
    EXPECT_NE(token, 0u);
    tokens.insert(token);
  }
  EXPECT_EQ(tokens.size(), 8u);
}

// --- replay-buffer bound vs a daemon that never ACKs ----------------------

// A minimal impostor daemon: completes the v2 HELLO, then swallows every
// batch without ever acknowledging. The client's replay buffer must hit
// its cap and give up within the policy deadline — never grow without
// bound, never hang.
struct NoAckServer {
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::thread thread;
  std::atomic<bool> stop{false};

  NoAckServer() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd, 8), 0);
    thread = std::thread([this] { run(); });
  }

  ~NoAckServer() {
    stop = true;
    ::shutdown(listen_fd, SHUT_RDWR);
    thread.join();
    ::close(listen_fd);
  }

  void run() {
    while (!stop.load()) {
      pollfd lp{listen_fd, POLLIN, 0};
      if (::poll(&lp, 1, 100) <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      serve(fd);
      ::close(fd);
    }
  }

  void serve(int fd) {
    net::FrameAssembler assembler;
    std::uint8_t buf[4096];
    while (!stop.load()) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n == 0) return;
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return;
      }
      assembler.append(buf, static_cast<std::size_t>(n));
      try {
        while (auto frame = assembler.next()) {
          if (frame->type != FrameType::kHello) continue;  // swallow
          net::HelloReply rep;
          rep.accepted = true;
          rep.message = "welcome to nowhere";
          rep.num_tiers = 2;
          rep.window = 1;
          rep.model_version = 1;
          rep.dims.assign(2, static_cast<std::uint16_t>(catalog_dim()));
          rep.session_token = 0xBADF00D;
          rep.last_applied_seq = 0;
          const auto bytes = net::encode_hello_reply(rep);
          std::size_t off = 0;
          while (off < bytes.size()) {
            const ssize_t w = ::send(fd, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (w <= 0) return;
            off += static_cast<std::size_t>(w);
          }
        }
      } catch (const net::ProtocolError&) {
        return;
      }
    }
  }
};

TEST(NetResume, ReplayBufferIsBoundedWhenTheDaemonNeverAcks) {
  NoAckServer impostor;

  net::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = 0.01;
  policy.max_backoff = 0.02;
  policy.deadline = 0.3;  // per-outage budget: give up fast
  net::Client client;
  client.set_retry_policy(policy);
  client.set_max_pending_batches(4);
  client.connect("127.0.0.1", impostor.port);
  ASSERT_TRUE(client.hello({"doomed", "hpc", 2, 1}).accepted);

  const auto ticks = make_ticks(2, 51);
  const auto send_forever = [&] {
    // Bounded by max_pending_batches + the policy deadline: the 5th
    // un-ACKed batch must throw rather than queue.
    for (int i = 0; i < 64; ++i) {
      SampleBatch batch;
      batch.first_tick = static_cast<std::uint32_t>(2 * i);
      batch.ticks = ticks;
      client.send_batch(batch);
    }
  };
  EXPECT_THROW(send_forever(), net::TransportError);
  EXPECT_LE(client.session().pending_batches, 4u);
}

}  // namespace
}  // namespace hpcap

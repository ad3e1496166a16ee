#include "net/aggregate.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace hpcap::net {

namespace {

// Window indices a subscriber may run ahead of the merge frontier before
// apply() refuses — a leaf this far ahead means another leaf is stalled
// (or the topology is misconfigured) and the pending map would otherwise
// grow without bound.
constexpr std::uint32_t kMaxWindowSkew = 65536;

// Full (vote-carrying) windows the uplink queues during a parent outage
// before it starts degrading new windows to all-abstain placeholders.
constexpr std::size_t kMaxQueuedWindows = 65536;

[[noreturn]] void refuse(const std::string& what) {
  throw std::runtime_error(what);
}

}  // namespace

FleetAggregator::FleetAggregator(const core::MonitorSource& source,
                                 Options opts)
    : monitor_(source.instantiate()),
      model_version_(source.version()),
      opts_(opts) {
  const std::size_t m = monitor_.synopses().size();
  if (m == 0 || m > kMaxAggSynopses)
    refuse("FleetAggregator: model GPV width out of range");
  width_ = static_cast<std::uint16_t>(m);
  claimed_.assign(m, 0);
  if (opts_.fanin == 0) opts_.fanin = 1;
}

const std::vector<std::uint16_t>* FleetAggregator::coverage_of(
    std::uint64_t token) const {
  const auto it = subs_.find(token);
  return it == subs_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> FleetAggregator::subscriber_tokens() const {
  std::vector<std::uint64_t> out;
  out.reserve(subs_.size());
  for (const auto& [token, cov] : subs_) out.push_back(token);
  return out;
}

void FleetAggregator::subscribe(std::uint64_t token,
                                std::vector<std::uint16_t> coverage) {
  if (started_)
    refuse(
        "fleet stream already started; late subscriptions cannot vote on "
        "decided history");
  if (subs_.size() >= opts_.fanin)
    refuse("fan-in exhausted (" + std::to_string(opts_.fanin) +
           " subscribers)");
  if (subs_.count(token) != 0) refuse("duplicate subscription token");
  if (coverage.empty()) refuse("subscription covers no synopses");
  // Validate before mutating claimed_ so a rejected subscribe leaves no
  // partial claim behind.
  std::vector<std::uint8_t> mine(width_, 0);
  for (const std::uint16_t s : coverage) {
    if (s >= width_)
      refuse("synopsis index " + std::to_string(s) +
             " outside the fleet GPV (width " + std::to_string(width_) + ")");
    if (mine[s]) refuse("synopsis index " + std::to_string(s) +
                        " repeated within the subscription");
    if (claimed_[s])
      refuse("synopsis index " + std::to_string(s) +
             " already covered by another leaf");
    mine[s] = 1;
  }
  for (const std::uint16_t s : coverage) claimed_[s] = 1;
  subs_.emplace(token, std::move(coverage));
}

FleetAggregator::Pending& FleetAggregator::slot(std::uint32_t window_index) {
  auto [it, inserted] = pending_.try_emplace(window_index);
  if (inserted) {
    it->second.votes.assign(width_, 0);
    it->second.valid.assign(width_, 0);
  }
  return it->second;
}

DecisionFrame to_decision_frame(std::uint32_t window_index,
                                const core::CoordinatedPredictor::Decision& d) {
  DecisionFrame frame;
  frame.window_index = window_index;
  frame.state = static_cast<std::uint8_t>(d.state);
  frame.confident = d.confident ? 1 : 0;
  frame.degraded = d.degraded ? 1 : 0;
  frame.hc = d.hc;
  frame.bottleneck_tier = d.bottleneck_tier;
  frame.staleness = d.staleness;
  return frame;
}

DecisionFrame FleetAggregator::decide(std::uint32_t window_index,
                                      Pending& p) {
  const auto d = monitor_.decide_votes_masked(p.votes, p.valid);
  started_ = true;
  return to_decision_frame(window_index, d);
}

void FleetAggregator::drain_ready(std::vector<DecisionFrame>& out) {
  // Strictly in-order: the predictor's history register must consume
  // windows exactly as a flat daemon would.
  while (!pending_.empty()) {
    auto it = pending_.begin();
    if (it->first != next_window_) break;
    if (it->second.reporters < subs_.size()) break;
    out.push_back(decide(it->first, it->second));
    pending_.erase(it);
    ++next_window_;
  }
}

std::vector<DecisionFrame> FleetAggregator::apply(
    std::uint64_t token, std::span<const AggregateWindow> windows) {
  const auto sub = subs_.find(token);
  if (sub == subs_.end()) refuse("unknown subscription");
  const std::vector<std::uint16_t>& cov = sub->second;
  for (const AggregateWindow& w : windows) {
    if (w.window_index < next_window_) continue;  // resume replay
    if (w.window_index - next_window_ >= kMaxWindowSkew)
      refuse("window " + std::to_string(w.window_index) + " is " +
             std::to_string(w.window_index - next_window_) +
             " ahead of the merge frontier");
    if (w.votes.size() != cov.size() || w.valid.size() != cov.size())
      refuse("VOTES width " + std::to_string(w.votes.size()) +
             " != subscribed coverage " + std::to_string(cov.size()));
    Pending& p = slot(w.window_index);
    if (std::find(p.reported.begin(), p.reported.end(), token) !=
        p.reported.end())
      continue;  // duplicate within the pending frontier — idempotent
    for (std::size_t i = 0; i < cov.size(); ++i) {
      if (!w.valid[i]) continue;  // abstention: bit stays invalid
      p.votes[cov[i]] = w.votes[i];
      p.valid[cov[i]] = 1;
    }
    p.reported.push_back(token);
    ++p.reporters;
  }
  std::vector<DecisionFrame> out;
  drain_ready(out);
  return out;
}

std::vector<DecisionFrame> FleetAggregator::unsubscribe(std::uint64_t token) {
  const auto sub = subs_.find(token);
  if (sub == subs_.end()) return {};
  for (const std::uint16_t s : sub->second) claimed_[s] = 0;
  subs_.erase(sub);
  // Windows that were waiting only on the retired leaf decide now; its
  // bits stay invalid and the predictor degrades exactly as it does for
  // a blacked-out tier.
  for (auto& [idx, p] : pending_) {
    const auto it = std::find(p.reported.begin(), p.reported.end(), token);
    if (it != p.reported.end()) {
      p.reported.erase(it);
      --p.reporters;
    }
  }
  std::vector<DecisionFrame> out;
  drain_ready(out);
  return out;
}

// ---------------------------------------------------------------------------
// Uplink

Uplink::Uplink(Options opts) : opts_(std::move(opts)) {
  if (opts_.coverage.empty())
    throw std::invalid_argument("net::Uplink: coverage must be non-empty");
  if (opts_.max_batch_windows == 0) opts_.max_batch_windows = 1;
  opts_.max_batch_windows =
      std::min(opts_.max_batch_windows, std::size_t{kMaxAggWindows});
}

Uplink::~Uplink() { stop(); }

void Uplink::start() {
  util::MutexLock lock(&mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { worker(); });
}

void Uplink::stop() {
  {
    util::MutexLock lock(&mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  util::MutexLock lock(&mu_);
  running_ = false;
}

void Uplink::offer(std::uint64_t session_token, std::uint32_t window_index,
                   std::span<const int> votes,
                   std::span<const std::uint8_t> valid) {
  util::MutexLock lock(&mu_);
  if (feed_token_ == 0) feed_token_ = session_token;
  if (session_token != feed_token_) {
    ++stats_.dropped_foreign;
    return;
  }
  QueuedWindow q;
  q.window_index = window_index;
  if (queue_.size() >= kMaxQueuedWindows) {
    // Preserve window-index contiguity under a long parent outage: the
    // placeholder costs a few bytes and decodes as all-abstain, so the
    // parent's in-order merge never stalls on a gap.
    ++stats_.degraded_overflow;
  } else {
    q.votes.assign(votes.begin(), votes.end());
    q.valid.assign(valid.begin(), valid.end());
  }
  queue_.push_back(std::move(q));
  ++stats_.offered;
  cv_.notify_one();
}

std::vector<DecisionFrame> Uplink::drain_fleet_decisions() {
  util::MutexLock lock(&mu_);
  std::vector<DecisionFrame> out(fleet_decisions_.begin(),
                                 fleet_decisions_.end());
  fleet_decisions_.clear();
  return out;
}

Uplink::Stats Uplink::stats() const {
  util::MutexLock lock(&mu_);
  return stats_;
}

void Uplink::worker() {
  for (;;) {
    {
      util::MutexLock lock(&mu_);
      if (stop_ && queue_.empty()) return;
    }
    try {
      run_session();
      // run_session only returns cleanly on stop with the queue drained.
      return;
    } catch (const SessionLost& e) {
      // The parent permanently refused the subscription (coverage
      // overlap, post-start join, fan-in). Retrying cannot help.
      std::fprintf(stderr, "hpcap uplink: %s\n", e.what());
      util::MutexLock lock(&mu_);
      ++stats_.outages;
      stats_.subscribed = false;
      return;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hpcap uplink: outage: %s\n", e.what());
      util::MutexLock lock(&mu_);
      ++stats_.outages;
      stats_.subscribed = false;
      // Pause before the next full cycle; stop() interrupts the wait
      // (a spurious wakeup merely shortens the pause).
      if (!stop_) cv_.wait_for(lock, std::chrono::milliseconds(500));
      if (stop_) return;
    }
  }
}

void Uplink::run_session() {
  Client client;
  client.set_retry_policy(opts_.retry);
  client.connect(opts_.host, opts_.port, 5.0);

  AggregateSubscribe req;
  req.leaf = opts_.leaf;
  req.synopses = opts_.coverage;
  {
    util::MutexLock lock(&mu_);
    req.resume_token = resume_token_;
    req.resume_from_window = next_fleet_window_;
  }
  const AggregateSubscribeReply rep = client.aggregate_subscribe(req, 10.0);
  if (!rep.accepted)
    throw SessionLost("net::Uplink: parent refused subscription: " +
                      rep.message);
  {
    util::MutexLock lock(&mu_);
    stats_.subscribed = true;
    resume_token_ = rep.session_token;
  }

  AggregateBatch batch;
  for (;;) {
    bool flush_and_exit = false;
    batch.windows.clear();
    batch.agg_seq = 0;  // client stamps the session sequence
    {
      util::MutexLock lock(&mu_);
      // Bounded nap while idle; a spurious wakeup just sends an empty
      // batch iteration around the loop again.
      if (!stop_ && queue_.empty())
        cv_.wait_for(lock, std::chrono::milliseconds(100));
      flush_and_exit = stop_;
      while (!queue_.empty() &&
             batch.windows.size() < opts_.max_batch_windows) {
        QueuedWindow& q = queue_.front();
        AggregateWindow w;
        w.window_index = q.window_index;
        if (q.votes.empty()) {
          // Overflow placeholder: every covered bit abstains.
          w.votes.assign(opts_.coverage.size(), 0);
          w.valid.assign(opts_.coverage.size(), 0);
        } else {
          w.votes = std::move(q.votes);
          std::transform(q.valid.begin(), q.valid.end(),
                         std::back_inserter(w.valid),
                         [](std::uint8_t v) { return v ? 1 : 0; });
        }
        batch.windows.push_back(std::move(w));
        queue_.pop_front();
      }
    }
    if (!batch.windows.empty()) {
      try {
        client.send_aggregate(batch);
      } catch (...) {
        // The client's own resilience is exhausted — a fresh cycle will
        // resubscribe with the resume token and the parent's replay
        // protocol. Re-queue what this batch held (front, in order) so
        // no window index goes missing; the aggregator ignores any the
        // parent already merged.
        util::MutexLock lock(&mu_);
        for (auto it = batch.windows.rbegin(); it != batch.windows.rend();
             ++it) {
          QueuedWindow q;
          q.window_index = it->window_index;
          q.votes = std::move(it->votes);
          q.valid = std::move(it->valid);
          queue_.push_front(std::move(q));
        }
        throw;
      }
      util::MutexLock lock(&mu_);
      stats_.sent_windows += batch.windows.size();
    }
    // Fleet decisions ride back as ordinary DECISION frames.
    std::vector<DecisionFrame> fleet = client.drain_decisions();
    if (!fleet.empty()) {
      util::MutexLock lock(&mu_);
      for (DecisionFrame& d : fleet) {
        next_fleet_window_ = d.window_index + 1;
        fleet_decisions_.push_back(d);
      }
    }
    if (flush_and_exit) {
      util::MutexLock lock(&mu_);
      if (queue_.empty()) return;
    }
  }
}

}  // namespace hpcap::net

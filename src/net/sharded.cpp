#include "net/sharded.h"

#include <stdexcept>
#include <utility>

namespace hpcap::net {

ShardedServer::ShardedServer(core::MonitorSource& source, ServerConfig cfg)
    : source_(source), cfg_(std::move(cfg)), group_(cfg_.token_seed) {
  if (cfg_.reactors < 1)
    throw std::invalid_argument("ShardedServer: reactors must be >= 1");

  loops_.reserve(cfg_.reactors);
  for (std::size_t i = 0; i < cfg_.reactors; ++i)
    loops_.push_back(std::make_unique<EventLoop>());

  // Reactor 0 exists from construction (signal handlers hook its loop);
  // workers are built in start(), once reactor 0 has resolved the
  // ephemeral port they report.
  const ShardRole role0 = cfg_.reactors == 1 ? ShardRole::kStandalone
                                              : ShardRole::kHandoffLeader;
  servers_.push_back(std::make_unique<Server>(*loops_[0], source_, cfg_,
                                              &group_, role0));
}

ShardedServer::~ShardedServer() {
  // Stop any reactor threads still running (join() not reached, or an
  // exception unwound past it).
  for (std::size_t i = 1; i < threads_.size() + 1 && i < loops_.size(); ++i) {
    if (!threads_[i - 1].joinable()) continue;
    ShardEnvelope env;
    env.kind = ShardEnvelope::Kind::kBeginShutdown;
    group_.post(i, std::move(env));
  }
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

void ShardedServer::set_uplink(Uplink* uplink) {
  if (started_)
    throw std::logic_error("ShardedServer: set_uplink after start");
  uplink_ = uplink;
}

void ShardedServer::set_shard0_wake_hook(std::function<void()> hook) {
  if (started_)
    throw std::logic_error("ShardedServer: wake hook after start");
  shard0_hook_ = std::move(hook);
}

void ShardedServer::start() {
  if (started_) throw std::logic_error("ShardedServer: already started");

  if (uplink_ != nullptr) servers_[0]->set_uplink(uplink_);
  servers_[0]->start();
  port_ = servers_[0]->port();
  cfg_.port = port_;  // workers report this port

  for (std::size_t i = 1; i < cfg_.reactors; ++i) {
    servers_.push_back(std::make_unique<Server>(
        *loops_[i], source_, cfg_, &group_, ShardRole::kHandoffWorker));
    if (uplink_ != nullptr) servers_[i]->set_uplink(uplink_);
    servers_[i]->start();
  }

  // Every wake drains the shard's mailbox; shard 0 additionally runs the
  // daemon's signal hook (reload/shutdown).
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    Server* srv = servers_[i].get();
    if (i == 0) {
      loops_[i]->set_wake_handler([this, srv] {
        srv->drain_mailbox();
        if (shard0_hook_) shard0_hook_();
      });
    } else {
      loops_[i]->set_wake_handler([srv] { srv->drain_mailbox(); });
    }
  }

  threads_.reserve(cfg_.reactors > 0 ? cfg_.reactors - 1 : 0);
  for (std::size_t i = 1; i < cfg_.reactors; ++i)
    threads_.emplace_back([loop = loops_[i].get()] { loop->run(); });
  started_ = true;
}

void ShardedServer::join() {
  if (!started_) throw std::logic_error("ShardedServer: join before start");
  loops_[0]->run();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

void ShardedServer::begin_shutdown() {
  ShardEnvelope env;
  env.kind = ShardEnvelope::Kind::kBeginShutdown;
  group_.post(0, std::move(env));
}

}  // namespace hpcap::net

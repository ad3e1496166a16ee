// Multi-reactor hpcapd: N event loops on N threads behind one port.
//
// ShardedServer is the assembly layer over ShardGroup + Server. It
// builds one EventLoop + Server pair per reactor — reactor 0 the
// hand-off leader that owns the only listener and deals accepted
// sockets round-robin (its own share included), the rest workers fed
// through their mailboxes — wires every loop's wake handler to
// drain_mailbox, and runs reactors 1..N-1 on their own threads while
// start()/join() bracket the whole fleet from the caller's thread.
//
// Ownership stays strictly per-reactor (see server.h): the shared spine
// is the ShardGroup this class owns. Decision streams are bit-identical
// to the standalone daemon for any fixed connection->reactor assignment.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/monitor_source.h"
#include "net/server.h"

namespace hpcap::net {

class ShardedServer {
 public:
  // Borrows `source` (must outlive the ShardedServer). cfg.reactors must
  // be >= 1; a single reactor degenerates to one standalone-equivalent
  // loop, still runnable through start()/join().
  ShardedServer(core::MonitorSource& source, ServerConfig cfg);
  ~ShardedServer();
  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  // Leaf mode: forward every shard's decided GPVs to `uplink` (borrowed;
  // call before start()).
  void set_uplink(Uplink* uplink);

  // Extra work run on shard 0's loop thread after each wake() — the
  // daemon's signal handlers (SIGHUP reload, SIGTERM shutdown) hang off
  // this. Call before start().
  void set_shard0_wake_hook(std::function<void()> hook);

  // Binds all listeners and launches reactor threads 1..N-1. Throws on
  // socket failure (no threads are left running on throw).
  void start();
  // Runs shard 0's loop on the calling thread until shutdown, then joins
  // the other reactors. start() must have succeeded.
  void join();
  // Requests a fleet-wide graceful drain from off-loop (thread-safe).
  void begin_shutdown();

  std::uint16_t port() const noexcept { return port_; }
  std::size_t reactors() const noexcept { return servers_.size(); }
  Server& shard(std::size_t i) { return *servers_.at(i); }
  EventLoop& loop(std::size_t i) { return *loops_.at(i); }
  ShardGroup& group() noexcept { return group_; }

 private:
  core::MonitorSource& source_;
  ServerConfig cfg_;
  ShardGroup group_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::thread> threads_;
  std::function<void()> shard0_hook_;
  Uplink* uplink_ = nullptr;
  std::uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace hpcap::net

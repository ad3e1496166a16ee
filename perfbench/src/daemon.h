// One `hpcapd` process: exec'd on a fixed CPU set, its port read from the
// "listening on" line, stopped with SIGTERM (SIGKILL after a grace
// period) and always reaped. The child dies with the benchmark
// (PR_SET_PDEATHSIG), so no daemon outlives a crashed run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct DaemonSpec {
  std::string binary;       // path to hpcapd
  std::string model;        // bundle file
  std::vector<std::string> extra_args;
  std::vector<int> cpus;
  std::string log_path;     // daemon stderr
  std::string preload;      // LD_PRELOAD shim ("" = none)
  std::string syscount_path;  // shim's shared counter file
};

class Daemon {
 public:
  // Forks and execs; returns once the daemon prints its port (throws if
  // it exits or stays silent for 20 s). exec_ns is taken just before the
  // fork, the start of setup_s.
  explicit Daemon(const DaemonSpec& spec);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }
  std::int64_t exec_ns() const noexcept { return exec_ns_; }
  // SIGTERM, wait, SIGKILL on timeout. Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::int64_t exec_ns_ = 0;
};

}  // namespace perfbench

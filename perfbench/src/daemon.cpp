#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "host.h"

namespace perfbench {

Daemon::Daemon(const DaemonSpec& spec) {
  std::vector<std::string> args = {spec.binary, "--model", spec.model,
                                   "--port", "0", "--log-level", "warn"};
  args.insert(args.end(), spec.extra_args.begin(), spec.extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "LD_PRELOAD=", 11) != 0 &&
        std::strncmp(*e, "PERFBENCH_SYSCOUNT=", 19) != 0)
      env_store.emplace_back(*e);
  if (!spec.preload.empty()) {
    env_store.push_back("LD_PRELOAD=" + spec.preload);
    env_store.push_back("PERFBENCH_SYSCOUNT=" + spec.syscount_path);
  }
  std::vector<char*> envp;
  for (std::string& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
    throw std::runtime_error("perfbench: pipe failed");
  const int log_fd =
      ::open(spec.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
             0644);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : spec.cpus) CPU_SET(c, &set);
  const pid_t parent = ::getpid();

  // vfork, not fork: fork copies the driver's page tables, which grow with
  // the decisions a timed phase keeps (to ~370 MiB on wire-sharded), and
  // that copy is the driver's cost, not the daemon's. With fork,
  // wire-sharded's setup_s read 4 to 9 ms across runs; with vfork, ~2 ms.
  exec_ns_ = now_ns();
  pid_ = ::vfork();
  if (pid_ < 0) throw std::runtime_error("perfbench: vfork failed");
  if (pid_ == 0) {
    // Child: shares the parent's memory until exec; plain system calls only.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::sched_setaffinity(0, sizeof set, &set);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  if (log_fd >= 0) ::close(log_fd);
  out_fd_ = pipe_fds[0];

  // "hpcapd listening on 127.0.0.1:PORT (...)"
  std::string line;
  const std::int64_t deadline = now_ns() + 20'000'000'000LL;
  while (line.find('\n') == std::string::npos) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    pollfd p{out_fd_, POLLIN, 0};
    if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      stop();
      throw std::runtime_error("perfbench: hpcapd did not report a port");
    }
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      stop();
      throw std::runtime_error("perfbench: hpcapd exited during start-up "
                               "(see " + spec.log_path + ")");
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t on = line.find(" on ");
  const std::size_t colon = line.find(':', on == std::string::npos ? 0 : on);
  if (on == std::string::npos || colon == std::string::npos) {
    stop();
    throw std::runtime_error("perfbench: unexpected hpcapd banner: " + line);
  }
  port_ = static_cast<std::uint16_t>(
      std::strtoul(line.c_str() + colon + 1, nullptr, 10));
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace perfbench

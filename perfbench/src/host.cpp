#include "host.h"

#include <dirent.h>
#include <linux/perf_event.h>
#include <malloc.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void sleep_until_ns(std::int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error(std::string("sched_setaffinity: ") +
                             std::strerror(errno));
}

void pin_thread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(tid, sizeof set, &set) != 0)
    throw std::runtime_error(std::string("sched_setaffinity(thread): ") +
                             std::strerror(errno));
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int c : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

namespace {

// Throughput of the calling thread's CPU: 8 independent xorshift streams
// plus a sweep over a 256 KiB array, in million steps per second. Both
// halves compete for what a co-tenant on the same physical core takes
// (execution ports, L1/L2), so a shared core reads slower.
double probe_speed(std::vector<std::uint64_t>& buf) {
  std::uint64_t x[8];
  for (int i = 0; i < 8; ++i) x[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
  std::uint64_t steps = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  while (t1 - t0 < 10'000'000) {
    for (std::size_t j = 0; j < buf.size(); ++j) {
      for (std::uint64_t& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
      }
      buf[j] += x[j & 7];
    }
    steps += buf.size();
    t1 = now_ns();
  }
  volatile std::uint64_t sink = buf[0] ^ x[0];
  (void)sink;
  return static_cast<double>(steps) / (static_cast<double>(t1 - t0) * 1e-3);
}

}  // namespace

Placement plan_placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> allowed;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) allowed.push_back(c);
  }
  if (allowed.empty()) allowed.push_back(0);
  Placement p;
  p.nproc = static_cast<int>(allowed.size());

  // Rank the CPUs by a short probe (best of 3 interleaved rounds each):
  // on a shared VM a vCPU whose physical core a co-tenant is using runs
  // up to ~1.7x slower for minutes, and the measured threads should not
  // land there.
  std::vector<std::uint64_t> buf(32768, 1);
  std::map<int, double> speed;
  for (int round = 0; round < 3; ++round)
    for (const int c : allowed) {
      pin_self({c});
      speed[c] = std::max(speed[c], probe_speed(buf));
    }
  pin_self(allowed);
  std::vector<int> ranked = allowed;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](int a, int b) { return speed[a] > speed[b]; });
  for (const int c : ranked) p.cpu_speed.emplace_back(c, speed[c]);

  // Reactors and agents alternate down the ranking (reactor 0 on the
  // fastest CPU, agent 0 on the next, ...): the daemon's set is every
  // other CPU, the agents' the rest. A single-CPU host runs everything on
  // that CPU. The in-process workload and the replays use the fastest.
  for (std::size_t i = 0; i < ranked.size(); ++i)
    (i % 2 == 0 ? p.daemon_cpus : p.agent_cpus).push_back(ranked[i]);
  if (p.agent_cpus.empty()) p.agent_cpus = p.daemon_cpus;
  p.local_cpu = ranked.front();
  return p;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      const sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      try {
        pin_self({cpu});
      } catch (const std::exception&) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

std::vector<pid_t> list_tasks(pid_t pid) {
  std::vector<pid_t> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    out.push_back(static_cast<pid_t>(std::strtol(e->d_name, nullptr, 10)));
  }
  ::closedir(d);
  return out;
}

TaskSample read_task(pid_t pid, pid_t tid) {
  TaskSample s;
  const std::string base = "/proc/" + std::to_string(pid) + "/task/" +
                           std::to_string(tid) + "/";
  {
    std::ifstream f(base + "schedstat");
    long long run = 0;
    if (f >> run) s.cpu_ns = run;
  }
  std::ifstream f(base + "status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0)
      s.ctxsw_vol = std::stoull(line.substr(line.find(':') + 1));
    else if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0)
      s.ctxsw_invol = std::stoull(line.substr(line.find(':') + 1));
  }
  return s;
}

std::map<pid_t, TaskSample> read_tasks(pid_t pid) {
  std::map<pid_t, TaskSample> out;
  for (const pid_t tid : list_tasks(pid)) out[tid] = read_task(pid, tid);
  return out;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::size_t heap_in_use_bytes() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

namespace {

int open_counter(pid_t tid, std::uint32_t type, std::uint64_t config,
                 int* err) {
  perf_event_attr attr{};
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &attr, tid, -1, -1, 0);
  if (fd < 0) *err = errno;
  return static_cast<int>(fd);
}

std::uint64_t read_counter(int fd) {
  std::uint64_t v = 0;
  if (fd < 0 || ::read(fd, &v, sizeof v) != static_cast<ssize_t>(sizeof v))
    return 0;
  return v;
}

}  // namespace

SoftCounters::SoftCounters(pid_t tid) {
  const std::uint64_t configs[3] = {PERF_COUNT_SW_TASK_CLOCK,
                                    PERF_COUNT_SW_CONTEXT_SWITCHES,
                                    PERF_COUNT_SW_CPU_MIGRATIONS};
  int err = 0;
  ok_ = true;
  for (int i = 0; i < 3; ++i) {
    fds_[i] = open_counter(tid, PERF_TYPE_SOFTWARE, configs[i], &err);
    if (fds_[i] < 0) {
      ok_ = false;
      error_ = std::string("perf_event_open(software) on tid ") +
               std::to_string(tid) + ": " + std::strerror(err);
    }
  }
}

SoftCounters::~SoftCounters() {
  for (const int fd : fds_)
    if (fd >= 0) ::close(fd);
}

SoftCounters::Values SoftCounters::read() const {
  return {read_counter(fds_[0]), read_counter(fds_[1]),
          read_counter(fds_[2])};
}

std::string probe_hw_counters() {
  int err = 0;
  const int fd = open_counter(0, PERF_TYPE_HARDWARE,
                              PERF_COUNT_HW_CPU_CYCLES, &err);
  if (fd < 0)
    return std::string("perf_event_open(PERF_COUNT_HW_CPU_CYCLES): ") +
           std::strerror(err);
  ::close(fd);
  return "ok";
}

std::string kernel_release() {
  utsname u{};
  if (::uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

int perf_event_paranoid() {
  std::ifstream f("/proc/sys/kernel/perf_event_paranoid");
  int v = 99;
  f >> v;
  return v;
}

}  // namespace perfbench

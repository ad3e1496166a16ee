// Host plumbing for the benchmark: CPU placement, clocks, per-thread CPU
// accounting, /proc readers for another process's threads, and software
// perf_event counters. Everything here observes the program from outside.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (CLOCK_MONOTONIC).
std::int64_t now_ns();
// Sleeps until the absolute CLOCK_MONOTONIC instant `t_ns`.
void sleep_until_ns(std::int64_t t_ns);
// CPU time of the calling thread, nanoseconds.
std::int64_t thread_cpu_ns();

// Pins the calling thread to `cpus`; throws on failure.
void pin_self(const std::vector<int>& cpus);
// Pins thread `tid` (of any process we may control) to `cpu`.
void pin_thread(pid_t tid, int cpu);
std::string cpu_list(const std::vector<int>& cpus);

// Where each party runs: the daemon's CPU set (one reactor per CPU), one
// CPU per agent thread, and the CPU the in-process workload and the stage
// replays use; with the probed speed of every CPU, fastest first.
struct Placement {
  int nproc = 1;
  std::vector<int> daemon_cpus;
  std::vector<int> agent_cpus;
  int local_cpu = 0;
  std::vector<std::pair<int, double>> cpu_speed;  // (cpu, Msteps/s)
};
Placement plan_placement();

// One SCHED_IDLE busy-loop thread per CPU for the object's lifetime. They
// run only when nothing else wants the CPU, so a CPU of the benchmark's
// set never halts: a wake-up then costs a scheduler switch, not a trip
// through the hypervisor's idle path, whose latency varies with whatever
// else the host runs.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Cumulative counters of one thread (a /proc/<pid>/task/<tid> entry).
struct TaskSample {
  std::int64_t cpu_ns = 0;        // schedstat: time on CPU
  std::uint64_t ctxsw_vol = 0;    // status: voluntary_ctxt_switches
  std::uint64_t ctxsw_invol = 0;  // status: nonvoluntary_ctxt_switches
};
std::vector<pid_t> list_tasks(pid_t pid);
TaskSample read_task(pid_t pid, pid_t tid);
std::map<pid_t, TaskSample> read_tasks(pid_t pid);
// VmHWM of `pid` in MiB (0 when unreadable).
double vm_hwm_mb(pid_t pid);
// Bytes this process's main malloc arena has handed out and not freed
// (mallinfo2: uordblks + hblkhd).
std::size_t heap_in_use_bytes();

// Software perf_event counters (task-clock, context switches, CPU
// migrations) attached to one thread of any process we may trace. When
// the kernel refuses, `ok` is false and `error` says why.
class SoftCounters {
 public:
  explicit SoftCounters(pid_t tid);
  ~SoftCounters();
  SoftCounters(const SoftCounters&) = delete;
  SoftCounters& operator=(const SoftCounters&) = delete;

  struct Values {
    std::uint64_t task_clock_ns = 0;
    std::uint64_t ctxsw = 0;
    std::uint64_t migrations = 0;
  };
  Values read() const;
  bool ok() const noexcept { return ok_; }
  const std::string& error() const noexcept { return error_; }

 private:
  int fds_[3] = {-1, -1, -1};
  bool ok_ = false;
  std::string error_;
};

// Whether a hardware cycles counter can be opened on this host; the
// returned string is "ok" or the reason it cannot.
std::string probe_hw_counters();
std::string kernel_release();
int perf_event_paranoid();

}  // namespace perfbench

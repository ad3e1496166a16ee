#include "workloads.h"

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/monitor_source.h"
#include "daemon.h"
#include "net/client.h"
#include "replay.h"
#include "syscount.h"
#include "trace.h"

namespace perfbench {

using namespace hpcap;

namespace {

// Streaming starts this long before the timed window opens, so sockets,
// arenas and caches are warm when measurement begins.
constexpr double kWarmupS = 0.5;
// Extra daemon launches per run, each timed to its first accepted HELLO,
// half before the timed phase and half after it; setup_s is the median
// over these and every timed phase's own launch.
constexpr int kSetupRepeats = 24;
constexpr std::size_t kSpanCap = 2000000;        // kept in memory per thread
constexpr std::size_t kSpanRowsWritten = 200000;  // written per thread
constexpr std::size_t kBlock = 32;  // the daemon's observe block
// A closed-loop agent's frames in flight. A deployed agent has one (at
// 1 Hz a 64-tick frame is decided long before the next is due); with one,
// though, each reactor idles while its agent encodes the next frame, and
// wire-sharded runs at wire-bulk's rate. Two is the least depth at which
// agent and daemon overlap (double buffering). Measured on a 4-vCPU KVM
// guest, depths 1/2/4/8 gave 1.24/2.20/2.33/2.41 M samples/s on
// wire-sharded and 1.14/1.15/1.21/1.29 M on wire-bulk, while the frame
// latency grew in proportion to the depth.
constexpr std::uint64_t kFramesInFlight = 2;

using TimedSample = std::pair<std::int64_t, std::int64_t>;  // (at, value) ns

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The timed window is cut into equal bins (ten per second of --seconds).
// Rates and CPU costs are taken per bin. A rate is reported for the best
// bin, the highest per-bin throughput (min-of-N timing). On a shared VM,
// co-tenants can slow a vCPU by up to ~1.7x for seconds at a time; the
// other bins measure them, the best bin measures this code. A CPU cost is
// reported for the lower-quartile bin: a daemon thread's CPU time read
// from /proc at a bin edge lags by up to a scheduler tick, and the lowest
// bin is the one where that error ran furthest in its favour. On
// wire-tick, the lowest bin's daemon cost moved by ~20 % between runs,
// the lower quartile's by under 10 %.
//
// Wire latency quantiles are taken per bin, over every sample in it, and
// reported as the median over the bins. A stall within a bin (a daemon
// timer, a socket or write queue that builds up) shows in full in that
// bin; one that recurs in most bins moves the median. What it does not
// follow is a co-tenant slowing one of the benchmark's vCPUs for a while.
// The tail reported is p95, with p99 printed beside it but not gated: on
// wire-tick at 10 000 ticks/s (1000 samples a bin), the p99's spread over
// ten runs (interquartile range over median) reached 0.2 to 0.4 in noisy
// spells on a shared 4-vCPU KVM guest, whether taken over the whole
// window, per second or per bin; the p95's stayed at or under 0.13.
//
// The in-process loop has no timers, sockets or queues: it replays the
// same 28 blocks of the stream cycle thousands of times a second. Its
// quantiles are taken over those block positions, each at its fastest
// pass in the window, so they show which blocks the code makes slow and
// not how often the host interrupted a ~15 us block. Taken over every
// block instead, its p99 moved by 35 to 55 % across runs on the VM above,
// with any binning, because about 1 % of blocks are interrupted.
constexpr int kBinsPerSecond = 10;
double best_high(const std::vector<double>& per_bin) {
  return per_bin.empty() ? 0.0
                         : *std::max_element(per_bin.begin(), per_bin.end());
}
double low_quartile(const std::vector<double>& per_bin) {
  return quantile(per_bin, 0.25);
}

struct Bins {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int n = 1;
  std::int64_t edge(int k) const { return t0 + (t1 - t0) * k / n; }
  double width_s() const { return static_cast<double>(t1 - t0) * 1e-9 / n; }
  int index(std::int64_t t) const {
    if (t < t0 || t >= t1) return -1;
    return static_cast<int>((t - t0) * n / (t1 - t0));
  }
};

Bins make_bins(std::int64_t t0, double seconds) {
  Bins b;
  b.t0 = t0;
  b.t1 = t0 + static_cast<std::int64_t>(seconds * 1e9);
  b.n = std::max(1, static_cast<int>(std::lround(seconds * kBinsPerSecond)));
  return b;
}

// Quantile `q`, in microseconds, of the samples in each bin; the median
// over the bins (see above).
double binned_quantile_us(const std::vector<TimedSample>& samples,
                          const Bins& bins, double q) {
  std::vector<std::vector<double>> per_bin(static_cast<std::size_t>(bins.n));
  for (const auto& [at, v] : samples) {
    const int b = bins.index(at);
    if (b >= 0)
      per_bin[static_cast<std::size_t>(b)].push_back(static_cast<double>(v) *
                                                     1e-3);
  }
  std::vector<double> quantiles;
  for (auto& v : per_bin)
    if (!v.empty()) quantiles.push_back(quantile(std::move(v), q));
  return median(std::move(quantiles));
}

std::size_t count_in_window(const std::vector<TimedSample>& samples,
                            const Bins& bins) {
  return static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(),
      [&](const TimedSample& s) { return bins.index(s.first) >= 0; }));
}

double per_k(double numerator, double denominator) {
  return denominator > 0 ? numerator * 1000.0 / denominator : 0.0;
}

pid_t gettid_now() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

// --- span helpers (no-ops when untraced) ---------------------------------

std::uint32_t span_open(SpanLog* log, const char* name, std::uint64_t id,
                        std::uint32_t parent = UINT32_MAX) {
  return log != nullptr ? log->open(name, id, parent) : UINT32_MAX;
}
void span_close(SpanLog* log, std::uint32_t i) {
  if (log != nullptr) log->close(i);
}

// --- the syscall-count file shared with the LD_PRELOAD shim -------------

class SyscountFile {
 public:
  explicit SyscountFile(const std::string& path) {
    const std::size_t size = sizeof(syscount::Slot) * syscount::kSlots;
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0 || ::ftruncate(fd, static_cast<off_t>(size)) != 0)
      throw std::runtime_error("perfbench: cannot create " + path);
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) throw std::runtime_error("perfbench: mmap failed");
    slots_ = static_cast<syscount::Slot*>(p);
  }
  ~SyscountFile() {
    ::munmap(slots_, sizeof(syscount::Slot) * syscount::kSlots);
  }
  SyscountFile(const SyscountFile&) = delete;
  SyscountFile& operator=(const SyscountFile&) = delete;

  // Every counted call of every thread of the traced process.
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < syscount::kSlots; ++i)
      for (const auto& c : slots_[i].counts)
        n += c.load(std::memory_order_relaxed);
    return n;
  }

 private:
  syscount::Slot* slots_ = nullptr;
};

// --- wire workloads -------------------------------------------------------

struct WireSpec {
  int reactors = 1;
  int agents = 2;
  int window = 4;
  int ticks_per_frame = 64;
  double rate = 0.0;  // open-loop ticks/s; 0 = closed loop
  std::vector<std::string> daemon_args;
};

WireSpec wire_spec(const std::string& workload) {
  WireSpec w;
  if (workload == "wire-tick") {
    w.agents = 1;
    w.window = 1;
    w.ticks_per_frame = 1;
    w.rate = 10000.0;
  } else if (workload == "wire-sharded") {
    w.reactors = 2;
    w.daemon_args = {"--reactors", "2", "--shard-mode", "handoff"};
  }
  return w;
}

struct Agent {
  net::Client client;
  int cpu = 0;
  std::vector<net::SampleBatch> frames;  // one stream cycle, cyclic
  std::thread thread;
  std::atomic<pid_t> tid{0};
  std::atomic<std::uint64_t> windows_rx{0};
  std::atomic<std::uint64_t> frames_tx{0};
  // Results, read after join.
  std::vector<DecisionFrame> got;
  std::vector<TimedSample> latency;  // (received, latency)
  std::vector<TimedSample> lateness;  // open loop: (sent, send - due)
  std::uint64_t backlog_max = 0;
  std::uint64_t ticks_sent = 0;
  std::string error;
  std::optional<SpanLog> spans;
};

// Closed loop with no pause between frames and at most kFramesInFlight
// frames whose decisions are outstanding. Latency is per frame, from the
// start of its send to the arrival of its last window's decision.
void closed_loop(Agent& a, const WireSpec& w, const std::atomic<bool>& stop) {
  SpanLog* log = a.spans ? &*a.spans : nullptr;
  const auto T = static_cast<std::uint64_t>(w.ticks_per_frame);
  const std::uint64_t wpf = T / static_cast<std::uint64_t>(w.window);
  const std::uint64_t depth = kFramesInFlight;
  std::vector<std::int64_t> sent_at(depth);
  std::uint64_t f = 0;     // frames sent
  std::uint64_t done = 0;  // frames whose decisions have all arrived
  const auto finish_frame = [&] {
    for (std::uint64_t i = 0; i < wpf; ++i)
      a.got.push_back(a.client.next_decision(30.0));
    const std::int64_t rx = now_ns();
    a.latency.emplace_back(rx, rx - sent_at[done % depth]);
    a.windows_rx.store(++done * wpf, std::memory_order_relaxed);
  };
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint32_t frame = span_open(log, "agent.frame", f);
    if (f - done == depth) {
      const std::uint32_t wait = span_open(log, "agent.wait", f, frame);
      finish_frame();
      span_close(log, wait);
    }
    net::SampleBatch& batch = a.frames[f % a.frames.size()];
    batch.batch_seq = 0;  // the client stamps the session's next sequence
    batch.first_tick = static_cast<std::uint32_t>(f * T);
    const std::uint32_t send = span_open(log, "agent.send", f, frame);
    sent_at[f % depth] = now_ns();
    a.client.send_batch(batch);
    span_close(log, send);
    a.frames_tx.store(++f, std::memory_order_relaxed);
    span_close(log, frame);
  }
  while (done < f) finish_frame();
  a.ticks_sent = f * T;
}

// Open loop: tick k is due at start + k/rate. A decision still
// outstanding when the next tick falls due holds that send back (one
// thread, one connection); timing every decision from its tick's due
// time charges that stall to latency, and lateness/backlog record it.
void open_loop(Agent& a, const WireSpec& w, const std::atomic<bool>& stop) {
  SpanLog* log = a.spans ? &*a.spans : nullptr;
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const std::int64_t t0 = now_ns();
  const double period_ns = 1e9 / w.rate;
  std::uint64_t k = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
    const std::uint32_t frame = span_open(log, "agent.frame", k);
    if (now_ns() < due) {
      const std::uint32_t idle = span_open(log, "agent.idle", k, frame);
      sleep_until_ns(due);
      span_close(log, idle);
    }
    const std::int64_t sent = now_ns();
    a.lateness.emplace_back(sent, sent - due);
    const auto due_by_now = static_cast<std::uint64_t>(
        static_cast<double>(sent - t0) / period_ns) + 1;
    a.backlog_max = std::max(a.backlog_max, due_by_now - k);
    net::SampleBatch& batch = a.frames[k % a.frames.size()];
    batch.batch_seq = 0;
    batch.first_tick = static_cast<std::uint32_t>(k);
    const std::uint32_t send = span_open(log, "agent.send", k, frame);
    a.client.send_batch(batch);
    span_close(log, send);
    const std::uint32_t wait = span_open(log, "agent.wait", k, frame);
    a.got.push_back(a.client.next_decision(30.0));
    span_close(log, wait);
    const std::int64_t rx = now_ns();
    a.latency.emplace_back(rx, rx - due);
    ++k;
    a.windows_rx.store(k, std::memory_order_relaxed);
    a.frames_tx.store(k, std::memory_order_relaxed);
    span_close(log, frame);
  }
  a.ticks_sent = k;
}

std::int64_t thread_cpu_of(std::thread& t) {
  clockid_t cid;
  if (::pthread_getcpuclockid(t.native_handle(), &cid) != 0) return 0;
  timespec ts{};
  ::clock_gettime(cid, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// One daemon, its agents, and one timed window.
struct Phase {
  double setup_s = 0.0;  // exec -> first HELLO accepted
  Bins bins;
  // Per bin: samples/s, and daemon and agent CPU in us per ksample.
  std::vector<double> bin_rates, bin_daemon_cpu, bin_agent_cpu;
  std::uint64_t windows = 0;      // decided windows received in the window
  double window_s = 0.0;          // between the first and last snapshot
  std::uint64_t frames = 0;       // SAMPLE_BATCH frames sent in the window
  std::vector<double> task_busy;  // per daemon thread, CPU / wall
  std::int64_t daemon_cpu_ns = 0;
  std::uint64_t daemon_ctxsw = 0;
  std::int64_t agent_cpu_ns = 0;
  double agent_busy_max = 0.0;
  std::uint64_t agent_ctxsw = 0;
  double hwm_mb = 0.0;
  net::StatsReply stats;
  std::uint64_t reconnects = 0;
  std::uint64_t syscalls = 0;  // traced only
  bool perf_ok = false;
  std::string perf_error;
  SoftCounters::Values perf;  // summed over daemon threads, traced only
  std::vector<std::unique_ptr<Agent>> agents;
};

Phase run_phase(const RunConfig& cfg, const WireSpec& w, const Fixture& fx,
                const std::string& model, double seconds, bool traced) {
  Phase ph;
  DaemonSpec spec;
  spec.binary = cfg.bin_dir + "/hpcapd";
  spec.model = model;
  spec.extra_args = w.daemon_args;
  spec.cpus = cfg.placement.daemon_cpus;
  spec.log_path = cfg.out_dir + "/hpcapd.log";
  std::optional<SyscountFile> syscount;
  if (traced) {
    spec.syscount_path = cfg.out_dir + "/syscount-" + cfg.workload + ".bin";
    syscount.emplace(spec.syscount_path);
    spec.preload = cfg.bin_dir + "/libperfbench_syscount.so";
  }
  // Keep every CPU a reactor or an agent runs on from halting.
  std::vector<int> busy;
  const auto take = [&busy](const std::vector<int>& from, int n) {
    for (int i = 0; i < n && i < static_cast<int>(from.size()); ++i)
      if (std::find(busy.begin(), busy.end(), from[i]) == busy.end())
        busy.push_back(from[i]);
  };
  take(cfg.placement.daemon_cpus, w.reactors);
  take(cfg.placement.agent_cpus, w.agents);
  const IdleSpinners spinners(busy);
  Daemon daemon(spec);

  const std::vector<net::SampleBatch> frames =
      make_frames(fx, w.ticks_per_frame);
  for (int i = 0; i < w.agents; ++i) {
    auto a = std::make_unique<Agent>();
    a->cpu = cfg.placement.agent_cpus[static_cast<std::size_t>(i) %
                                      cfg.placement.agent_cpus.size()];
    a->frames = frames;
    a->client.connect("127.0.0.1", daemon.port());
    net::HelloRequest hello;
    hello.agent = "perfbench-" + std::to_string(i);
    hello.level = "hpc";
    hello.num_tiers = kTiers;
    hello.window = static_cast<std::uint16_t>(w.window);
    const net::HelloReply reply = a->client.hello(hello);
    if (!reply.accepted)
      throw std::runtime_error("perfbench: HELLO rejected: " + reply.message);
    if (i == 0)
      ph.setup_s = static_cast<double>(now_ns() - daemon.exec_ns()) * 1e-9;
    if (traced) a->spans.emplace("agent" + std::to_string(i), kSpanCap);
    ph.agents.push_back(std::move(a));
  }
  // One daemon thread per CPU of its set, in thread-creation order (the
  // reactors all exist once the daemon has printed its port), so reactors
  // neither migrate nor share a CPU. (Moving reactors and agents to the
  // next CPU of their set every second, as the inproc loop moves, put
  // stalls of several ms into wire-tick's latency after each move.)
  std::vector<pid_t> daemon_tasks = list_tasks(daemon.pid());
  std::sort(daemon_tasks.begin(), daemon_tasks.end());
  for (std::size_t i = 0; i < daemon_tasks.size(); ++i)
    pin_thread(daemon_tasks[i], spec.cpus[i % spec.cpus.size()]);
  std::vector<std::unique_ptr<SoftCounters>> perf;
  if (traced)
    for (const pid_t tid : daemon_tasks)
      perf.push_back(std::make_unique<SoftCounters>(tid));

  std::atomic<bool> stop{false};
  for (auto& ap : ph.agents) {
    Agent& a = *ap;
    a.thread = std::thread([&a, &w, &stop] {
      try {
        pin_self({a.cpu});
        a.tid.store(gettid_now());
        if (w.rate > 0)
          open_loop(a, w, stop);
        else
          closed_loop(a, w, stop);
      } catch (const std::exception& e) {
        a.error = e.what();
      }
      if (a.tid.load() == 0) a.tid.store(gettid_now());
    });
  }
  // Stop and reap the agents on every path out of this function.
  struct Joiner {
    std::atomic<bool>& stop;
    std::vector<std::unique_ptr<Agent>>& agents;
    ~Joiner() {
      stop = true;
      for (auto& a : agents)
        if (a->thread.joinable()) a->thread.join();
    }
  } joiner{stop, ph.agents};

  const auto received = [&] {
    std::uint64_t n = 0;
    for (auto& a : ph.agents) n += a->windows_rx.load();
    return n;
  };
  const auto sent = [&] {
    std::uint64_t n = 0;
    for (auto& a : ph.agents) n += a->frames_tx.load();
    return n;
  };
  struct Snapshot {
    std::int64_t at = 0;
    std::map<pid_t, TaskSample> daemon;
    std::vector<std::int64_t> agent_cpu;
    std::vector<TaskSample> agent_task;
    std::uint64_t windows = 0, frames = 0, syscalls = 0;
    std::vector<SoftCounters::Values> perf;
  };
  const auto snapshot = [&] {
    Snapshot s;
    s.at = now_ns();
    s.windows = received();
    s.frames = sent();
    s.daemon = read_tasks(daemon.pid());
    for (auto& a : ph.agents) {
      s.agent_cpu.push_back(thread_cpu_of(a->thread));
      s.agent_task.push_back(read_task(::getpid(), a->tid.load()));
    }
    if (syscount) s.syscalls = syscount->total();
    for (auto& p : perf) s.perf.push_back(p->read());
    return s;
  };

  const std::int64_t t_start =
      now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
  sleep_until_ns(t_start);
  for (auto& a : ph.agents)
    while (a->tid.load() == 0) std::this_thread::yield();
  const Snapshot s0 = snapshot();
  ph.bins = make_bins(t_start, seconds);
  const auto daemon_cpu = [](const Snapshot& s) {
    std::int64_t n = 0;
    for (const auto& [tid, t] : s.daemon) n += t.cpu_ns;
    return n;
  };
  const auto agent_cpu = [](const Snapshot& s) {
    std::int64_t n = 0;
    for (const std::int64_t c : s.agent_cpu) n += c;
    return n;
  };
  Snapshot prev = s0;
  for (int k = 1; k <= ph.bins.n; ++k) {
    sleep_until_ns(ph.bins.edge(k));
    Snapshot cur = snapshot();
    const double ks =
        static_cast<double>(cur.windows - prev.windows) * w.window * kTiers /
        1000.0;
    ph.bin_rates.push_back(ks * 1000.0 /
                           (static_cast<double>(cur.at - prev.at) * 1e-9));
    if (ks > 0) {
      ph.bin_daemon_cpu.push_back(
          static_cast<double>(daemon_cpu(cur) - daemon_cpu(prev)) * 1e-3 / ks);
      ph.bin_agent_cpu.push_back(
          static_cast<double>(agent_cpu(cur) - agent_cpu(prev)) * 1e-3 / ks);
    }
    prev = std::move(cur);
  }
  const Snapshot& s1 = prev;
  ph.window_s = static_cast<double>(s1.at - s0.at) * 1e-9;
  ph.hwm_mb = vm_hwm_mb(daemon.pid());

  stop = true;
  for (auto& a : ph.agents) a->thread.join();
  for (auto& a : ph.agents)
    if (!a->error.empty())
      throw std::runtime_error("perfbench: agent failed: " + a->error);

  const double wall_ns = static_cast<double>(ph.bins.t1 - ph.bins.t0);
  ph.windows = s1.windows - s0.windows;
  ph.frames = s1.frames - s0.frames;
  ph.syscalls = s1.syscalls - s0.syscalls;
  for (const auto& [tid, end] : s1.daemon) {
    const auto it = s0.daemon.find(tid);
    if (it == s0.daemon.end()) continue;
    const std::int64_t cpu = end.cpu_ns - it->second.cpu_ns;
    ph.daemon_cpu_ns += cpu;
    ph.daemon_ctxsw += (end.ctxsw_vol + end.ctxsw_invol) -
                       (it->second.ctxsw_vol + it->second.ctxsw_invol);
    ph.task_busy.push_back(static_cast<double>(cpu) / wall_ns);
  }
  for (std::size_t i = 0; i < ph.agents.size(); ++i) {
    const std::int64_t cpu = s1.agent_cpu[i] - s0.agent_cpu[i];
    ph.agent_cpu_ns += cpu;
    ph.agent_busy_max =
        std::max(ph.agent_busy_max, static_cast<double>(cpu) / wall_ns);
    ph.agent_ctxsw += (s1.agent_task[i].ctxsw_vol + s1.agent_task[i].ctxsw_invol) -
                      (s0.agent_task[i].ctxsw_vol + s0.agent_task[i].ctxsw_invol);
  }
  ph.perf_ok = !perf.empty();
  for (std::size_t i = 0; i < perf.size(); ++i) {
    if (!perf[i]->ok()) {
      ph.perf_ok = false;
      ph.perf_error = perf[i]->error();
      continue;
    }
    ph.perf.task_clock_ns += s1.perf[i].task_clock_ns - s0.perf[i].task_clock_ns;
    ph.perf.ctxsw += s1.perf[i].ctxsw - s0.perf[i].ctxsw;
    ph.perf.migrations += s1.perf[i].migrations - s0.perf[i].migrations;
  }
  ph.stats = ph.agents.front()->client.stats();
  for (auto& a : ph.agents) ph.reconnects += a->client.session().reconnects;
  daemon.stop();
  return ph;
}

double wire_setup_once(const RunConfig& cfg, const WireSpec& w,
                       const std::string& model) {
  DaemonSpec spec;
  spec.binary = cfg.bin_dir + "/hpcapd";
  spec.model = model;
  spec.extra_args = w.daemon_args;
  spec.cpus = cfg.placement.daemon_cpus;
  spec.log_path = cfg.out_dir + "/hpcapd.log";
  Daemon daemon(spec);
  net::Client client;
  client.connect("127.0.0.1", daemon.port());
  net::HelloRequest hello;
  hello.agent = "perfbench-setup";
  hello.level = "hpc";
  hello.num_tiers = kTiers;
  hello.window = static_cast<std::uint16_t>(w.window);
  if (!client.hello(hello).accepted)
    throw std::runtime_error("perfbench: setup HELLO rejected");
  const double s = static_cast<double>(now_ns() - daemon.exec_ns()) * 1e-9;
  client.close();
  daemon.stop();
  return s;
}

// Checks every agent's decisions against the oracle; adds to `res`.
void check_agents(const Phase& ph, const WireSpec& w, Oracle& oracle,
                  const char* phase_name, Result& res) {
  for (std::size_t i = 0; i < ph.agents.size(); ++i) {
    const Agent& a = *ph.agents[i];
    const std::uint64_t expected = a.ticks_sent / static_cast<std::uint64_t>(w.window);
    const std::vector<DecisionFrame>& want = oracle.through(a.ticks_sent);
    std::size_t first = SIZE_MAX;
    const std::size_t bad = count_mismatches(a.got, want, &first);
    const std::uint64_t missing =
        expected > a.got.size() ? expected - a.got.size() : 0;
    std::uint64_t late = 0;
    if (w.rate > 0)
      for (const auto& [at, lat] : a.latency)
        late += static_cast<double>(lat) * 1e-6 > kLatencyLimitMs;
    res.attempted += expected;
    res.failed += bad + missing + late;
    if (bad > 0 || missing > 0) res.correct = false;
    if (bad > 0)
      res.notes.push_back(std::string("first divergent window (") +
                          phase_name + " phase, agent " + std::to_string(i) +
                          "): got " + describe(a.got[first]) + ", want " +
                          describe(want[first]));
    if (missing > 0)
      res.notes.push_back(std::to_string(missing) + " decisions missing (" +
                          phase_name + " phase, agent " + std::to_string(i) +
                          ")");
    if (late > 0)
      res.notes.push_back(std::to_string(late) + " decisions later than " +
                          std::to_string(kLatencyLimitMs) + " ms");
  }
  const std::uint64_t shed = ph.stats.value("decisions_shed") +
                             ph.stats.value("write_queue_overflows");
  res.failed += shed;
  res.failed = std::min(res.failed, res.attempted);
}

void add(Metrics& out, const std::string& name, double value) {
  if (!out.emplace(name, value).second)
    throw std::logic_error("metric reported twice: " + name);
}

// Per-layer metrics every traced run prints; workloads that do not touch
// a layer report 0 for it (the README maps each one to its workload).
void add_stage_metrics(Metrics& m, const StageTimes& st) {
  add(m, "protocol.crc32_ns_per_kb", st.crc32_ns_per_kb);
  add(m, "protocol.encode_ns_per_sample", st.encode_ns_per_sample);
  add(m, "protocol.decode_ns_per_sample", st.decode_ns_per_sample);
  add(m, "protocol.decision_codec_ns", st.decision_codec_ns);
  add(m, "protocol.bytes_per_sample", st.bytes_per_sample);
  add(m, "aggregator.ns_per_slot", st.aggregator_ns_per_slot);
  add(m, "validator.ns_per_row", st.validator_ns_per_row);
  add(m, "pipeline.predict_ns_per_window", st.predict_ns_per_window);
  add(m, "pipeline.observe_ns_per_window", st.observe_ns_per_window);
  add(m, "model.load_ms", st.model_load_ms);
  add(m, "model.instantiate_us", st.instantiate_us);
}

std::string write_model(const RunConfig& cfg, const Fixture& fx) {
  const std::string path = cfg.out_dir + "/model-" + cfg.workload + ".hpcap";
  std::ofstream f(path, std::ios::binary);
  f << fx.bundle;
  if (!f) throw std::runtime_error("perfbench: cannot write " + path);
  return path;
}

Result run_wire(const RunConfig& cfg, const Fixture& fx) {
  const WireSpec w = wire_spec(cfg.workload);
  const std::string model = write_model(cfg, fx);
  Result res;

  std::vector<double> setups;
  const auto time_setups = [&] {
    for (int r = 0; r < kSetupRepeats / 2; ++r)
      setups.push_back(wire_setup_once(cfg, w, model));
  };
  time_setups();
  // A traced run spends half its time untraced (the baseline for the
  // tracing overhead and the /proc readings) and half traced.
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Phase p = run_phase(cfg, w, fx, model, untraced_s, false);
  setups.push_back(p.setup_s);
  time_setups();
  std::optional<Phase> q;
  if (cfg.trace) {
    q.emplace(run_phase(cfg, w, fx, model, cfg.seconds / 2, true));
    setups.push_back(q->setup_s);
  }

  Oracle oracle(fx, w.window);
  if (cfg.perturb) oracle.perturb(100);
  check_agents(p, w, oracle, "untraced", res);
  if (q) check_agents(*q, w, oracle, "traced", res);

  const double ksamples =
      static_cast<double>(p.windows) * w.window * kTiers / 1000.0;
  std::vector<TimedSample> lat;
  for (auto& a : p.agents)
    lat.insert(lat.end(), a->latency.begin(), a->latency.end());
  const double daemon_cpu = low_quartile(p.bin_daemon_cpu);
  const double agent_cpu = low_quartile(p.bin_agent_cpu);

  auto& e = res.end_to_end;
  add(e, "setup_s", median(setups));
  // Open loop: the rate held over the whole window, which is the offered
  // rate unless the daemon fell behind. Its best bin would be a catch-up
  // burst after a stall.
  add(e, "samples_per_s", w.rate > 0 ? ksamples * 1000.0 / p.window_s
                                     : best_high(p.bin_rates));
  add(e, "decision_p50_us", binned_quantile_us(lat, p.bins, 0.50));
  add(e, "decision_p95_us", binned_quantile_us(lat, p.bins, 0.95));
  add(e, "daemon_cpu_us_per_ksample", daemon_cpu);
  add(e, "agent_cpu_us_per_ksample", agent_cpu);
  add(e, "daemon_rss_mb", p.hwm_mb);
  res.notes.push_back(
      "latency samples: " + std::to_string(count_in_window(lat, p.bins)) +
      " " +
      (w.rate > 0 ? "decisions, timed from each tick's due time"
                  : "frames, timed from send to the frame's last decision") +
      ", quantiles per 0.1 s bin, median over the bins; p99 (not gated) " +
      std::to_string(binned_quantile_us(lat, p.bins, 0.99)) + " us");
  res.notes.push_back("fixtures (not in setup_s): train " +
                      std::to_string(fx.train_s) + " s, record " +
                      std::to_string(fx.record_s) + " s");
  if (p.agent_busy_max > 0.9)
    res.notes.push_back("generator-bound: agent.busy_frac " +
                        std::to_string(p.agent_busy_max) +
                        " -- samples_per_s is the agents' ceiling, not the "
                        "daemon's");
  if (!cfg.trace) return res;

  // --- per-layer: replays, /proc (untraced phase), spans, shim, perf.
  pin_self({cfg.placement.local_cpu});
  const StageTimes st = replay_stages(fx, w.window, w.ticks_per_frame);
  auto& m = res.per_layer;
  add_stage_metrics(m, st);
  add(m, "validator.rows_rejected",
      static_cast<double>(p.stats.value("rows_rejected")));

  const double frames = static_cast<double>(p.frames);
  const double qframes = static_cast<double>(q->frames);
  const double busy_max =
      p.task_busy.empty() ? 0.0
                          : *std::max_element(p.task_busy.begin(), p.task_busy.end());
  const double busy_min =
      p.task_busy.empty() ? 0.0
                          : *std::min_element(p.task_busy.begin(), p.task_busy.end());
  const double stage_ns_per_sample =
      st.decode_ns_per_sample + st.aggregator_ns_per_slot +
      st.validator_ns_per_row / w.window +
      (st.predict_ns_per_window + st.decision_encode_ns) / (w.window * kTiers);
  add(m, "reactor.busy_frac", busy_max);
  add(m, "reactor.cpu_us_per_kframe",
      per_k(static_cast<double>(p.daemon_cpu_ns) * 1e-3, frames));
  add(m, "reactor.syscalls_per_kframe",
      per_k(static_cast<double>(q->syscalls), qframes));
  add(m, "reactor.ctxsw_per_kframe",
      per_k(static_cast<double>(p.daemon_ctxsw), frames));
  add(m, "reactor.unattributed_us_per_ksample",
      daemon_cpu - stage_ns_per_sample);
  add(m, "reactor.perf_cpu_us_per_kframe",
      per_k(static_cast<double>(q->perf.task_clock_ns) * 1e-3, qframes));
  add(m, "reactor.perf_ctxsw_per_kframe",
      per_k(static_cast<double>(q->perf.ctxsw), qframes));
  add(m, "reactor.perf_migrations_per_kframe",
      per_k(static_cast<double>(q->perf.migrations), qframes));
  for (const char* key : {"frames_in", "frames_out", "decisions_shed",
                          "write_queue_overflows", "malformed_frames",
                          "windows_discarded", "handoffs"})
    add(m, std::string("server.") + key,
        static_cast<double>(p.stats.value(key)));
  add(m, "shard.busy_frac_min", busy_min);
  add(m, "shard.busy_frac_max", busy_max);

  std::vector<SpanLog> logs;
  for (auto& a : q->agents) logs.push_back(std::move(*a->spans));
  const auto spans = summarize(logs);
  const auto span_of = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanStats{} : it->second;
  };
  const SpanStats send = span_of("agent.send");
  const SpanStats wait = span_of("agent.wait");
  add(m, "agent.busy_frac", p.agent_busy_max);
  add(m, "agent.send_us_p50", quantile(send.durations_ns, 0.5) * 1e-3);
  add(m, "agent.wait_us_per_kframe",
      per_k(wait.total_ns * 1e-3, static_cast<double>(send.count)));
  add(m, "agent.ctxsw_per_kframe",
      per_k(static_cast<double>(p.agent_ctxsw), frames));
  add(m, "agent.reconnects", static_cast<double>(p.reconnects + q->reconnects));

  std::vector<double> late_us;
  std::uint64_t backlog = 0;
  for (auto& a : p.agents) {
    for (const auto& [at, late] : a->lateness)
      if (p.bins.index(at) >= 0) late_us.push_back(static_cast<double>(late) * 1e-3);
    backlog = std::max(backlog, a->backlog_max);
  }
  add(m, "gen.late_p99_us", quantile(late_us, 0.99));
  add(m, "gen.backlog_max", static_cast<double>(backlog));

  const double qks = static_cast<double>(q->windows) * w.window * kTiers / 1000.0;
  const double cpu_untraced =
      static_cast<double>(p.daemon_cpu_ns + p.agent_cpu_ns) / ksamples;
  const double cpu_traced =
      static_cast<double>(q->daemon_cpu_ns + q->agent_cpu_ns) / qks;
  add(m, "trace.overhead_pct", (cpu_traced / cpu_untraced - 1.0) * 100.0);

  write_spans(cfg.out_dir + "/spans-" + cfg.workload + ".tsv", logs,
              kSpanRowsWritten);
  for (const auto& [name, s] : spans)
    res.notes.push_back("span " + name + ": " + std::to_string(s.count) +
                        " spans, self " + std::to_string(s.self_ns * 1e-6) +
                        " ms of " + std::to_string(s.total_ns * 1e-6) + " ms");
  if (!q->perf_ok)
    res.notes.push_back("SKIP software perf_event counters: " +
                        (q->perf_error.empty() ? std::string("no threads")
                                               : q->perf_error));
  return res;
}

// --- inproc ----------------------------------------------------------------

struct InprocPhase {
  Bins bins;
  std::vector<double> bin_rates;
  // Per block position in the stream cycle: its fastest time, ns.
  std::vector<std::int64_t> fastest_block;
  std::uint64_t blocks_timed = 0;
  std::vector<double> bin_cpu;  // us of thread CPU per ksample, per bin
  double heap_mb = 0.0;              // pipeline heap when timing began
  std::uint64_t checked = 0, mismatched = 0, rows_rejected = 0;
  std::string first_divergence;
  std::optional<SpanLog> spans;
};

// The daemon's session pipeline without the wire: aggregate, validate,
// decide in blocks of 32 windows with predict_masked_many. Each pass over
// the stream starts from fresh aggregators and a reset history, so every
// pass must reproduce the oracle's decisions for one stream cycle.
// `model_bytes` is the heap that loading the monitor took.
//
// The thread is pinned to one CPU at a time and moves to the next of
// `cpus` at every bin edge. On a shared VM the slow spells are per vCPU
// (a co-tenant on the same physical core): over a run, a loop held on one
// CPU was ~1.7x slower for seconds at a time while others ran at full
// speed. Moving through every CPU gives each of them bins across the
// whole window, so the best bin does not depend on which CPU happened to
// be slow for the run's duration.
InprocPhase run_inproc_phase(const Fixture& fx,
                             const std::vector<DecisionFrame>& want,
                             core::CapacityMonitor& monitor,
                             const std::vector<int>& cpus, double seconds,
                             bool traced, std::size_t model_bytes) {
  constexpr int kWindow = 4;
  InprocPhase ph;
  if (traced) ph.spans.emplace("inproc", kSpanCap);
  SpanLog* log = ph.spans ? &*ph.spans : nullptr;
  const std::int64_t t_start =
      now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
  ph.bins = make_bins(t_start, seconds);
  ph.bin_rates.assign(static_cast<std::size_t>(ph.bins.n), 0.0);
  const std::size_t cycle_windows =
      fx.stream.size() / static_cast<std::size_t>(kWindow);
  ph.fastest_block.assign((cycle_windows + kBlock - 1) / kBlock, INT64_MAX);

  // The benchmark's own storage is allocated above, the pipeline's below.
  const std::size_t heap0 = heap_in_use_bytes();
  const std::size_t dim = fx.dim;
  auto validator = make_validator(dim);
  std::vector<double> block(kBlock * kTiers * dim);
  std::vector<std::uint8_t> valid(kBlock * kTiers);
  std::vector<core::CoordinatedPredictor::Decision> out(kBlock);
  bool timing = false;
  std::uint64_t blocks = 0;
  // Thread CPU per bin, read only when a block lands in a new bin.
  int bin = -1;
  std::int64_t bin_cpu0 = 0;
  std::uint64_t bin_windows = 0;
  const auto close_bin = [&](std::int64_t cpu_now) {
    if (bin >= 0 && bin_windows > 0)
      ph.bin_cpu.push_back(static_cast<double>(cpu_now - bin_cpu0) * 1e-3 /
                           (static_cast<double>(bin_windows) * kWindow *
                            kTiers / 1000.0));
    bin_cpu0 = cpu_now;
    bin_windows = 0;
  };
  for (std::uint64_t pass = 0;; ++pass) {
    auto aggs = make_aggregators(dim, kWindow);
    monitor.predictor().reset_history();
    std::size_t tick = 0;
    std::size_t pass_window = 0;
    while (tick < fx.stream.size()) {
      const std::int64_t b0 = now_ns();
      if (!timing && b0 >= t_start) {
        timing = true;
        // The pipeline's heap once warm, before the benchmark's sample
        // storage grows.
        ph.heap_mb =
            static_cast<double>(model_bytes + heap_in_use_bytes() - heap0) /
            (1 << 20);
      }
      if (b0 >= ph.bins.t1) {
        close_bin(thread_cpu_ns());
        ph.rows_rejected = validator.stats().rejected;
        for (double& r : ph.bin_rates)
          r *= static_cast<double>(kWindow * kTiers) / ph.bins.width_s();
        return ph;
      }
      const std::uint32_t span = span_open(log, "inproc.block", blocks);
      const std::uint32_t agg = span_open(log, "inproc.aggregate", blocks, span);
      std::size_t w = 0;
      for (; tick < fx.stream.size() && w < kBlock; ++tick) {
        const Tick& t = fx.stream[tick];
        bool closed = false;
        for (std::size_t tier = 0; tier < kTiers; ++tier) {
          const auto r = aggs[tier].add_slot_view(t.tiers[tier].values);
          if (!r.window_closed) continue;
          closed = true;
          double* row = block.data() + (w * kTiers + tier) * dim;
          if (r.valid) {
            std::copy(r.instance.begin(), r.instance.end(), row);
            valid[w * kTiers + tier] =
                validator.validate({row, dim}) == core::RowVerdict::kValid;
          } else {
            std::fill(row, row + dim, 0.0);
            valid[w * kTiers + tier] = 0;
          }
        }
        if (closed) ++w;
      }
      span_close(log, agg);
      const std::uint32_t pred = span_open(log, "inproc.predict", blocks, span);
      monitor.predict_masked_many({block.data(), w, kTiers, dim}, valid.data(),
                                  std::span(out.data(), w));
      const std::int64_t b1 = now_ns();
      span_close(log, pred);
      if (timing) {
        std::int64_t& fastest = ph.fastest_block[pass_window / kBlock];
        fastest = std::min(fastest, b1 - b0);
        ++ph.blocks_timed;
      }
      const std::uint32_t chk = span_open(log, "inproc.check", blocks, span);
      for (std::size_t i = 0; i < w; ++i, ++pass_window) {
        const DecisionFrame got =
            to_frame(static_cast<std::uint32_t>(pass_window), out[i]);
        ++ph.checked;
        if (same_decision(got, want[pass_window])) continue;
        if (ph.mismatched++ == 0)
          ph.first_divergence = "pass " + std::to_string(pass) + ": got " +
                                describe(got) + ", want " +
                                describe(want[pass_window]);
      }
      span_close(log, chk);
      span_close(log, span);
      if (timing) {
        const int b = ph.bins.index(b1);
        if (b != bin) {
          close_bin(thread_cpu_ns());
          bin = b;
          if (b >= 0)
            pin_self({cpus[static_cast<std::size_t>(b) % cpus.size()]});
        }
        bin_windows += w;
        if (b >= 0)
          ph.bin_rates[static_cast<std::size_t>(b)] += static_cast<double>(w);
      }
      ++blocks;
    }
  }
}

Result run_inproc(const RunConfig& cfg, const Fixture& fx) {
  constexpr int kWindow = 4;
  Result res;
  std::vector<int> cpus;
  for (const auto& [cpu, speed] : cfg.placement.cpu_speed) cpus.push_back(cpu);
  // setup_s: parse + validate the bundle, then instantiate a monitor.
  // One takes ~0.1 ms, so set-ups are timed in rounds of ten back to back
  // and each round counts its fastest (the rest of a round measures the
  // co-tenants: the first set-up on a CPU costs 2-4x for cold caches, and
  // within one process the others ranged over 2x). setup_s is the median
  // over the rounds. Half the rounds run before the timed phase and half
  // after it, each half spread over every CPU like the timed loop.
  std::vector<double> setups;
  const auto time_setups = [&] {
    for (const int cpu : cpus) {
      pin_self({cpu});
      for (int round = 0; round < 5; ++round) {
        std::int64_t fastest = INT64_MAX;
        for (int r = 0; r < 10; ++r) {
          const std::int64_t t0 = now_ns();
          const auto source = core::MonitorSource::from_bytes(fx.bundle);
          const core::CapacityMonitor m = source.instantiate();
          fastest = std::min(fastest, now_ns() - t0);
        }
        setups.push_back(static_cast<double>(fastest) * 1e-9);
      }
    }
    pin_self({cfg.placement.local_cpu});
  };
  time_setups();
  Oracle oracle(fx, kWindow);
  if (cfg.perturb) oracle.perturb(100);
  const std::vector<DecisionFrame> want = oracle.through(fx.stream.size());
  const std::size_t heap0 = heap_in_use_bytes();
  const auto source = core::MonitorSource::from_bytes(fx.bundle);
  core::CapacityMonitor monitor = source.instantiate();
  const std::size_t model_bytes = heap_in_use_bytes() - heap0;

  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  InprocPhase p = run_inproc_phase(fx, want, monitor, cpus, untraced_s, false,
                                   model_bytes);
  time_setups();
  std::optional<InprocPhase> q;
  if (cfg.trace) {
    q.emplace(run_inproc_phase(fx, want, monitor, cpus, cfg.seconds / 2, true,
                               model_bytes));
    pin_self({cfg.placement.local_cpu});
  }

  for (const InprocPhase* ph : {&p, q ? &*q : nullptr}) {
    if (ph == nullptr) continue;
    res.attempted += ph->checked;
    res.failed += ph->mismatched;
    if (ph->mismatched > 0) {
      res.correct = false;
      res.notes.push_back("first divergent window: " + ph->first_divergence);
    }
  }

  const double cpu = low_quartile(p.bin_cpu);
  std::vector<double> fastest_us;
  for (const std::int64_t ns : p.fastest_block)
    if (ns != INT64_MAX) fastest_us.push_back(static_cast<double>(ns) * 1e-3);
  auto& e = res.end_to_end;
  add(e, "setup_s", median(setups));
  add(e, "samples_per_s", best_high(p.bin_rates));
  add(e, "decision_p50_us", quantile(fastest_us, 0.50));
  add(e, "decision_p95_us", quantile(fastest_us, 0.95));
  add(e, "daemon_cpu_us_per_ksample", cpu);
  // In process the monitor runs inside the agent: it pays the pipeline.
  add(e, "agent_cpu_us_per_ksample", cpu);
  add(e, "daemon_rss_mb", p.heap_mb);
  res.notes.push_back(
      "latency samples: " + std::to_string(p.blocks_timed) +
      " blocks of 32 windows, timed from the block's first tick to its "
      "decisions; quantiles over the " + std::to_string(fastest_us.size()) +
      " block positions of the stream cycle, each at its fastest pass; p99 "
      "(not gated) " + std::to_string(quantile(fastest_us, 0.99)) + " us");
  res.notes.push_back("daemon_rss_mb: heap the pipeline holds once warm "
                      "(model source, monitor, aggregators, validator, "
                      "block buffers), not the driver's RSS");
  res.notes.push_back("fixtures (not in setup_s): train " +
                      std::to_string(fx.train_s) + " s, record " +
                      std::to_string(fx.record_s) + " s");
  if (!cfg.trace) return res;

  const StageTimes st = replay_stages(fx, kWindow, 0);
  auto& m = res.per_layer;
  add_stage_metrics(m, st);
  add(m, "validator.rows_rejected", static_cast<double>(p.rows_rejected));
  add(m, "trace.overhead_pct",
      (low_quartile(q->bin_cpu) / cpu - 1.0) * 100.0);
  // The wire layers are not on this workload's path.
  for (const MetricDef& d : per_layer_defs()) m.try_emplace(d.name, 0.0);
  std::vector<SpanLog> logs;
  logs.push_back(std::move(*q->spans));
  write_spans(cfg.out_dir + "/spans-inproc.tsv", logs, kSpanRowsWritten);
  for (const auto& [name, s] : summarize(logs))
    res.notes.push_back("span " + name + ": " + std::to_string(s.count) +
                        " spans, self " + std::to_string(s.self_ns * 1e-6) +
                        " ms of " + std::to_string(s.total_ns * 1e-6) + " ms");
  res.notes.push_back("no wire on this workload: protocol, reactor, server, "
                      "shard, agent and gen metrics read 0");
  return res;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"samples_per_s", "1/s"},
      {"decision_p50_us", "us"},
      {"decision_p95_us", "us"},
      {"daemon_cpu_us_per_ksample", "us"},
      {"agent_cpu_us_per_ksample", "us"},
      {"daemon_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"protocol.crc32_ns_per_kb", "ns/KiB"},
      {"protocol.encode_ns_per_sample", "ns"},
      {"protocol.decode_ns_per_sample", "ns"},
      {"protocol.decision_codec_ns", "ns"},
      {"protocol.bytes_per_sample", "B"},
      {"aggregator.ns_per_slot", "ns"},
      {"validator.ns_per_row", "ns"},
      {"validator.rows_rejected", "count"},
      {"pipeline.predict_ns_per_window", "ns"},
      {"pipeline.observe_ns_per_window", "ns"},
      {"model.load_ms", "ms"},
      {"model.instantiate_us", "us"},
      {"reactor.busy_frac", "fraction"},
      {"reactor.cpu_us_per_kframe", "us"},
      {"reactor.syscalls_per_kframe", "count"},
      {"reactor.ctxsw_per_kframe", "count"},
      {"reactor.unattributed_us_per_ksample", "us"},
      {"reactor.perf_cpu_us_per_kframe", "us"},
      {"reactor.perf_ctxsw_per_kframe", "count"},
      {"reactor.perf_migrations_per_kframe", "count"},
      {"server.frames_in", "count"},
      {"server.frames_out", "count"},
      {"server.decisions_shed", "count"},
      {"server.write_queue_overflows", "count"},
      {"server.malformed_frames", "count"},
      {"server.windows_discarded", "count"},
      {"server.handoffs", "count"},
      {"shard.busy_frac_min", "fraction"},
      {"shard.busy_frac_max", "fraction"},
      {"agent.busy_frac", "fraction"},
      {"agent.send_us_p50", "us"},
      {"agent.wait_us_per_kframe", "us"},
      {"agent.ctxsw_per_kframe", "count"},
      {"agent.reconnects", "count"},
      {"gen.late_p99_us", "us"},
      {"gen.backlog_max", "count"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

bool known_workload(const std::string& name) {
  return name == "inproc" || name == "wire-bulk" || name == "wire-tick" ||
         name == "wire-sharded";
}

Result run_workload(const RunConfig& cfg, const Fixture& fx) {
  return cfg.workload == "inproc" ? run_inproc(cfg, fx) : run_wire(cfg, fx);
}

}  // namespace perfbench

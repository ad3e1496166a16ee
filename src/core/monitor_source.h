// Hot-swappable source of CapacityMonitor instances — the model side of
// the daemon's RELOAD / SIGHUP lifecycle.
//
// A monitor is stateful (the coordinated predictor's history register and
// stale-decision fallback evolve with the stream it watches), so live
// sessions cannot share one instance or be silently switched to a new
// model mid-stream without corrupting their temporal state. MonitorSource
// therefore holds the *serialized* model bundle (the core/model_io.h v1
// format) and hands each new session its own freshly loaded instance:
//
//   * instantiate() parses the current bundle into an independent
//     CapacityMonitor (history reset) — one per agent connection. The
//     parse that validated the bundle is kept and handed out (moved) by
//     the first instantiate() after it, so creating a source and
//     instantiating it parses once, not twice;
//   * swap_from_file()/swap_bytes() validate a replacement bundle by
//     fully loading it first, then atomically publish it together with
//     that parse; on any error the current model stays untouched;
//   * version() increments on every successful swap, so agents can tell
//     which model generation their session was built from.
//
// Thread-safe: swaps and reads may race from different threads (the
// daemon's event loop vs. a signal-triggered reloader); the serialized
// bundle is immutable once published and shared by shared_ptr.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/pipeline.h"
#include "util/mutex.h"

namespace hpcap::core {

class MonitorSource {
 public:
  // Loads and validates `path` (throws std::runtime_error on unreadable
  // or malformed bundles). The path is remembered for path-less reloads.
  static MonitorSource from_file(const std::string& path);
  // Takes an in-memory bundle (e.g. save_monitor into a string).
  static MonitorSource from_bytes(std::string bytes);
  // Serializes `monitor` — convenience for tests and in-process servers.
  static MonitorSource from_monitor(const CapacityMonitor& monitor);

  MonitorSource(MonitorSource&&) noexcept;
  MonitorSource& operator=(MonitorSource&&) = delete;
  MonitorSource(const MonitorSource&) = delete;
  MonitorSource& operator=(const MonitorSource&) = delete;

  // A fresh, independent monitor parsed from the current bundle: the kept
  // validation parse if no earlier call has taken it, else a new parse.
  CapacityMonitor instantiate() const;

  // Replaces the bundle. The replacement is fully load_monitor-ed before
  // publication: a truncated/corrupt/hostile file throws and leaves the
  // current model (and version) unchanged. `path == ""` in swap_from_file
  // re-reads the original path.
  void swap_from_file(const std::string& path = "");
  void swap_bytes(std::string bytes);

  // Monotonic model generation; starts at 1, bumps per successful swap.
  std::uint32_t version() const;
  // The current serialized bundle (immutable snapshot).
  std::shared_ptr<const std::string> bytes() const;
  // Origin file ("" for in-memory sources). Returned by value:
  // swap_from_file(path) republishes path_ under the lock, so handing
  // out a reference would race with a concurrent swap. (Found by the
  // GUARDED_BY annotation pass — the old accessor returned
  // `const std::string&` with no lock.)
  std::string path() const;

 private:
  MonitorSource(std::string path, std::string bytes);

  mutable util::Mutex mu_;
  std::shared_ptr<const std::string> bytes_ HPCAP_GUARDED_BY(mu_);
  // The parse that validated bytes_, until instantiate() takes it.
  mutable std::optional<CapacityMonitor> kept_ HPCAP_GUARDED_BY(mu_);
  std::uint32_t version_ HPCAP_GUARDED_BY(mu_) = 1;
  // Origin file; "" for in-memory sources.
  std::string path_ HPCAP_GUARDED_BY(mu_);
};

}  // namespace hpcap::core

#include "core/monitor_source.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/model_io.h"

namespace hpcap::core {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("MonitorSource: cannot open '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  if (!f && !f.eof())
    throw std::runtime_error("MonitorSource: error reading '" + path + "'");
  return std::move(ss).str();
}

// Validation = a full parse. Throws std::runtime_error on anything that
// load_monitor rejects (truncation, corruption, hostile counts).
CapacityMonitor parse_bundle(const std::string& bytes) {
  std::istringstream is(bytes);
  return load_monitor(is);
}

}  // namespace

MonitorSource::MonitorSource(std::string path, std::string bytes)
    : path_(std::move(path)) {
  kept_.emplace(parse_bundle(bytes));
  bytes_ = std::make_shared<const std::string>(std::move(bytes));
}

MonitorSource::MonitorSource(MonitorSource&& other) noexcept {
  util::MutexLock lock(&other.mu_);
  bytes_ = std::move(other.bytes_);
  kept_ = std::move(other.kept_);
  other.kept_.reset();
  version_ = other.version_;
  path_ = std::move(other.path_);
}

MonitorSource MonitorSource::from_file(const std::string& path) {
  return MonitorSource(path, read_file(path));
}

MonitorSource MonitorSource::from_bytes(std::string bytes) {
  return MonitorSource("", std::move(bytes));
}

MonitorSource MonitorSource::from_monitor(const CapacityMonitor& monitor) {
  std::ostringstream os;
  save_monitor(os, monitor);
  return MonitorSource("", std::move(os).str());
}

CapacityMonitor MonitorSource::instantiate() const {
  std::shared_ptr<const std::string> snapshot;
  {
    util::MutexLock lock(&mu_);
    if (kept_) {
      CapacityMonitor monitor = std::move(*kept_);
      kept_.reset();
      return monitor;
    }
    snapshot = bytes_;
  }
  // Parse outside the lock: loading is the expensive part and the
  // snapshot is immutable.
  std::istringstream is(*snapshot);
  return load_monitor(is);
}

void MonitorSource::swap_from_file(const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    util::MutexLock lock(&mu_);
    target = path_;
  }
  if (target.empty())
    throw std::runtime_error(
        "MonitorSource: no path to reload (in-memory source)");
  std::string bytes = read_file(target);
  CapacityMonitor parsed = parse_bundle(bytes);
  util::MutexLock lock(&mu_);
  bytes_ = std::make_shared<const std::string>(std::move(bytes));
  kept_.emplace(std::move(parsed));
  path_ = std::move(target);
  ++version_;
}

void MonitorSource::swap_bytes(std::string bytes) {
  CapacityMonitor parsed = parse_bundle(bytes);
  util::MutexLock lock(&mu_);
  bytes_ = std::make_shared<const std::string>(std::move(bytes));
  kept_.emplace(std::move(parsed));
  ++version_;
}

std::uint32_t MonitorSource::version() const {
  util::MutexLock lock(&mu_);
  return version_;
}

std::shared_ptr<const std::string> MonitorSource::bytes() const {
  util::MutexLock lock(&mu_);
  return bytes_;
}

std::string MonitorSource::path() const {
  util::MutexLock lock(&mu_);
  return path_;
}

}  // namespace hpcap::core

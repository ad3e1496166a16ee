// In-memory span recorder for the traced runs.
//
// A span is (name, start, end, parent span, id): the id is the frame
// sequence number on the wire workloads and the block number in process.
// Each thread owns one SpanLog (no locking); spans are kept in memory up
// to a cap and written out when the benchmark ends. Self time is a span's
// duration minus the part of it its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = UINT32_MAX;  // index in the same log
  std::uint64_t id = 0;
};

class SpanLog {
 public:
  SpanLog(std::string thread, std::size_t cap);
  // Opens a span and returns its index (UINT32_MAX once the cap is hit:
  // such spans are counted as dropped and close() ignores them).
  std::uint32_t open(const char* name, std::uint64_t id,
                     std::uint32_t parent = UINT32_MAX);
  void close(std::uint32_t index);

  const std::string& thread() const noexcept { return thread_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::string thread_;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Per-name totals over closed spans, with self time.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;
};
std::map<std::string, SpanStats> summarize(const std::vector<SpanLog>& logs);

// Writes spans as TSV (thread, name, id, start, end, parent, self), at
// most `max_rows_per_thread` per thread; self times count every span.
void write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 std::size_t max_rows_per_thread);

}  // namespace perfbench

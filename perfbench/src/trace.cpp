#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "host.h"

namespace perfbench {

SpanLog::SpanLog(std::string thread, std::size_t cap)
    : thread_(std::move(thread)), cap_(cap) {
  spans_.reserve(std::min<std::size_t>(cap, 1 << 16));
}

std::uint32_t SpanLog::open(const char* name, std::uint64_t id,
                            std::uint32_t parent) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return UINT32_MAX;
  }
  spans_.push_back({name, now_ns(), 0, parent, id});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::close(std::uint32_t index) {
  if (index < spans_.size()) spans_[index].end_ns = now_ns();
}

namespace {

// Self time of every span in `log`: duration minus its children's.
std::vector<double> self_times(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  for (const Span& s : spans)
    if (s.parent < spans.size() && s.end_ns != 0)
      self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns);
  return self;
}

}  // namespace

std::map<std::string, SpanStats> summarize(const std::vector<SpanLog>& logs) {
  std::map<std::string, SpanStats> out;
  for (const SpanLog& log : logs) {
    const std::vector<double> self = self_times(log);
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      if (s.end_ns == 0) continue;
      SpanStats& st = out[s.name];
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      ++st.count;
      st.total_ns += d;
      st.self_ns += self[i];
      st.durations_ns.push_back(d);
    }
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 std::size_t max_rows_per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread\tname\tid\tstart_ns\tend_ns\tparent\tself_ns\n");
  for (const SpanLog& log : logs) {
    const std::vector<double> self = self_times(log);
    const std::size_t rows = std::min(log.spans().size(), max_rows_per_thread);
    for (std::size_t i = 0; i < rows; ++i) {
      const Span& s = log.spans()[i];
      std::fprintf(f, "%s\t%s\t%llu\t%lld\t%lld\t%lld\t%.0f\n",
                   log.thread().c_str(), s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.parent == UINT32_MAX ? -1LL
                                          : static_cast<long long>(s.parent),
                   self[i]);
    }
    if (rows < log.spans().size() || log.dropped() > 0)
      std::fprintf(f,
                   "# %s: first %zu of %zu spans written; %llu over the "
                   "in-memory cap not kept\n",
                   log.thread().c_str(), rows, log.spans().size(),
                   static_cast<unsigned long long>(log.dropped()));
  }
  std::fclose(f);
}

}  // namespace perfbench

// Host-time spans for the benchmark's traced mode.
//
// A span is one timed interval around a call the benchmark itself makes
// into a layer's public functions: a whole cell, one phase of one epoch,
// one batch pass — never a single access. Every worker thread records into
// its own SpanLog (no locking on the hot path); the logs are merged when
// the traced pass ends, summed per layer, and dumped as Chrome trace-event
// JSON that opens in Perfetto or chrome://tracing.
#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread: what a cell costs the host even when the
// machine is shared and the thread is descheduled part of the time.
inline std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time of the whole process, every thread included.
inline std::int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Span {
  const char* name = "";  // static storage: layer.function names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same log, -1 for a root span
  std::int32_t cell = -1;
  std::int32_t worker = 0;
};

// One worker thread's spans, in the order they were opened.
class SpanLog {
 public:
  explicit SpanLog(int worker = 0) : worker_(worker) {}

  // Opens a span under the innermost open one; returns its index.
  int Open(const char* name, int cell) {
    Span span;
    span.name = name;
    span.cell = cell;
    span.worker = worker_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_ns = NowNs();
    return stack_.back();
  }
  // Closes the innermost open span; returns its duration.
  std::int64_t Close() {
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    span.end_ns = NowNs();
    stack_.pop_back();
    return span.end_ns - span.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int worker_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII wrapper; a null log records nothing (the untraced path shares code).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, int cell) : log_(log) {
    if (log_ != nullptr) {
      log_->Open(name, cell);
    }
  }
  ~Scoped() {
    if (log_ != nullptr) {
      log_->Close();
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
};

// Per-name totals over a set of logs: summed duration, summed self time
// (duration minus the time covered by direct children) and span count.
struct SpanTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t count = 0;
};

std::map<std::string, SpanTotals> Summarize(const std::vector<const SpanLog*>& logs);

// Writes the logs as a Chrome trace-event JSON object: one complete ("X")
// event per span with args {cell, parent, self_us}, plus an `otherData`
// block holding the per-layer self-time table. Returns false on I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs,
                      const std::string& process_name);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_

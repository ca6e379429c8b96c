#include "perfbench/driver/spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

// Self time of every span in `log`: its duration minus its direct children's.
std::vector<std::int64_t> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, SpanTotals> Summarize(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> self = SelfTimes(*log);
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& span = log->spans()[i];
      SpanTotals& entry = totals[span.name];
      entry.total_ns += span.end_ns - span.start_ns;
      entry.self_ns += self[i];
      ++entry.count;
    }
  }
  return totals;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs,
                      const std::string& process_name) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> self = SelfTimes(*log);
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& span = log->spans()[i];
      // Parent ids are made global by offsetting with the worker number:
      // (worker << 32 | index) is unique across the merged logs.
      const long long parent =
          span.parent < 0 ? -1
                          : (static_cast<long long>(span.worker) << 32 | span.parent);
      // The category is the layer: the name up to its first dot.
      const std::string name = span.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                   "\"cell\":%d,\"self_us\":%.3f}}",
                   name.c_str(), layer.c_str(), span.worker, static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<long long>(span.worker) << 32 | static_cast<long long>(i),
                   parent, span.cell, static_cast<double>(self[i]) / 1e3);
    }
  }
  std::fprintf(out, "\n],\"otherData\":{\"self_time_us\":{");
  bool first = true;
  for (const auto& [name, totals] : Summarize(logs)) {
    std::fprintf(out, "%s\"%s\":{\"self_us\":%.3f,\"total_us\":%.3f,\"spans\":%llu}",
                 first ? "" : ",", name.c_str(), static_cast<double>(totals.self_ns) / 1e3,
                 static_cast<double>(totals.total_ns) / 1e3,
                 static_cast<unsigned long long>(totals.count));
    first = false;
  }
  std::fprintf(out, "}}}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

#include "trace.hpp"

#include <fstream>

namespace perfbench {

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans) {
  auto child_ns = std::vector<int64_t>(spans.size(), 0);
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.duration_ns();
    }
  }
  auto totals = std::map<std::string, SpanTotals>{};
  for (auto index = size_t{0}; index < spans.size(); ++index) {
    auto& entry = totals[spans[index].name];
    ++entry.count;
    entry.total_ns += spans[index].duration_ns();
    entry.self_ns += spans[index].duration_ns() - child_ns[index];
  }
  return totals;
}

std::vector<int64_t> SpanDurations(const std::vector<Span>& spans, std::string_view name) {
  auto durations = std::vector<int64_t>{};
  for (const auto& span : spans) {
    if (span.name == name) {
      durations.push_back(span.duration_ns());
    }
  }
  return durations;
}

bool WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers) {
  auto file = std::ofstream{path};
  if (!file) {
    return false;
  }
  for (auto thread = size_t{0}; thread < tracers.size(); ++thread) {
    const auto& spans = tracers[thread]->spans();
    for (auto index = size_t{0}; index < spans.size(); ++index) {
      const auto& span = spans[index];
      file << "{\"thread\": " << thread << ", \"id\": " << index << ", \"name\": \"" << span.name
           << "\", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns
           << ", \"parent\": " << span.parent << ", \"request_id\": " << span.request_id << "}\n";
    }
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench

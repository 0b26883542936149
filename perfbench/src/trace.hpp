#ifndef PERFBENCH_SRC_TRACE_HPP_
#define PERFBENCH_SRC_TRACE_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call: a name, its interval, the enclosing span (-1 = root), and
/// the request (query, statement, or transaction) it belongs to.
struct Span {
  std::string name;
  int64_t start_ns{0};
  int64_t end_ns{0};
  int32_t parent{-1};
  uint64_t request_id{0};

  int64_t duration_ns() const {
    return end_ns - start_ns;
  }
};

/// Per-thread, in-memory span recorder. Spans nest by scope: a span opened
/// while another is open becomes its child and inherits its request id
/// unless given one. Nothing is written until the run ends (WriteSpans).
class Tracer {
 public:
  int32_t Begin(std::string_view name, uint64_t request_id) {
    const auto parent = open_.empty() ? int32_t{-1} : open_.back();
    if (request_id == 0 && parent >= 0) {
      request_id = spans_[static_cast<size_t>(parent)].request_id;
    }
    const auto index = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{std::string{name}, 0, 0, parent, request_id});
    open_.push_back(index);
    spans_.back().start_ns = NowNs();
    return index;
  }

  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint64_t request_id = 0) : tracer_(tracer) {
    if (tracer_) {
      index_ = tracer_->Begin(name, request_id);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (tracer_) {
      tracer_->End(index_);
    }
  }

 private:
  Tracer* tracer_;
  int32_t index_{-1};
};

/// Totals per span name. Self time is a span's duration minus the durations
/// of its direct children.
struct SpanTotals {
  uint64_t count{0};
  int64_t total_ns{0};
  int64_t self_ns{0};
};

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Mean duration in microseconds of the spans with this name (0 for none).
inline double MeanMicros(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  const auto entry = totals.find(name);
  return entry == totals.end() || entry->second.count == 0
             ? 0.0
             : static_cast<double>(entry->second.total_ns) / static_cast<double>(entry->second.count) / 1e3;
}

/// Durations (ns) of every span with this name, in recording order.
std::vector<int64_t> SpanDurations(const std::vector<Span>& spans, std::string_view name);

/// Writes the spans of several threads as JSON lines, one span per line.
bool WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_HPP_

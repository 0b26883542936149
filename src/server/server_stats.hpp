#ifndef HYRISE_SRC_SERVER_SERVER_STATS_HPP_
#define HYRISE_SRC_SERVER_SERVER_STATS_HPP_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hyrise {

/// Aggregate server observability counters (DESIGN.md §5i). Written by the
/// I/O threads, the admission controller, and every session's statement
/// executor; read by the `SHOW SERVER STATS` introspection query, the
/// statement log line, and monitoring tests. All relaxed atomics — these are
/// statistics, not synchronization.
struct ServerStats {
  // Connection lifecycle.
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};  // Over max_connections (53300 at handshake).
  std::atomic<uint64_t> active_connections{0};
  std::atomic<uint64_t> idle_timeouts{0};        // Connections reaped by the idle sweep.
  std::atomic<uint64_t> slow_reader_kills{0};    // Output buffer exceeded its bound.
  std::atomic<uint64_t> protocol_errors{0};      // 08P01 framing/containment events.

  // Admission control (statement-level backpressure).
  std::atomic<uint64_t> statements_admitted{0};
  std::atomic<uint64_t> statements_rejected{0};  // 53300 admission-queue overflow.
  std::atomic<uint64_t> statements_completed{0};
  std::atomic<uint64_t> statements_failed{0};    // Error / conflict / cancelled outcomes.
  std::atomic<uint64_t> admission_queue_depth{0};  // Currently admitted, not yet finished.
  std::atomic<uint64_t> memory_budget_rejections{0};  // 53200 per-query budget exceeded.

  // Execution-layer reuse, aggregated from SqlPipelineMetrics.
  std::atomic<uint64_t> pqp_cache_hits{0};
  std::atomic<uint64_t> result_cache_hits{0};
  std::atomic<uint64_t> conflict_retries{0};
  std::atomic<uint64_t> wal_wait_ns{0};

  // Wire volume.
  std::atomic<uint64_t> rows_sent{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> prepared_statements_parsed{0};
  std::atomic<uint64_t> prepared_executions{0};

  /// Snapshot for SHOW SERVER STATS: stable name/value pairs, one row each.
  std::vector<std::pair<std::string, int64_t>> Snapshot() const {
    const auto value = [](const std::atomic<uint64_t>& counter) {
      return static_cast<int64_t>(counter.load(std::memory_order_relaxed));
    };
    return {
        {"connections_accepted", value(connections_accepted)},
        {"connections_rejected", value(connections_rejected)},
        {"active_connections", value(active_connections)},
        {"idle_timeouts", value(idle_timeouts)},
        {"slow_reader_kills", value(slow_reader_kills)},
        {"protocol_errors", value(protocol_errors)},
        {"statements_admitted", value(statements_admitted)},
        {"statements_rejected", value(statements_rejected)},
        {"statements_completed", value(statements_completed)},
        {"statements_failed", value(statements_failed)},
        {"admission_queue_depth", value(admission_queue_depth)},
        {"memory_budget_rejections", value(memory_budget_rejections)},
        {"pqp_cache_hits", value(pqp_cache_hits)},
        {"result_cache_hits", value(result_cache_hits)},
        {"conflict_retries", value(conflict_retries)},
        {"wal_wait_ns", value(wal_wait_ns)},
        {"rows_sent", value(rows_sent)},
        {"bytes_sent", value(bytes_sent)},
        {"prepared_statements_parsed", value(prepared_statements_parsed)},
        {"prepared_executions", value(prepared_executions)},
    };
  }
};

}  // namespace hyrise

#endif  // HYRISE_SRC_SERVER_SERVER_STATS_HPP_

#ifndef HYRISE_SRC_SERVER_SERVER_HPP_
#define HYRISE_SRC_SERVER_SERVER_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "persistence/wal.hpp"
#include "scheduler/abstract_task.hpp"
#include "scheduler/cancellation_token.hpp"
#include "server/admission_controller.hpp"
#include "server/server_stats.hpp"
#include "server/session.hpp"
#include "utils/result.hpp"

namespace hyrise {

/// Tunables for the wire-protocol server. Defaults match a test-friendly
/// local deployment; production embedders override per field.
struct ServerConfig {
  /// Port to bind on 127.0.0.1; 0 picks a free port (read it via port()).
  uint16_t port{0};
  /// listen(2) backlog: pending-connection queue before the kernel refuses.
  int backlog{16};
  /// Accepted-session cap. Connections beyond it complete the startup
  /// handshake, receive an ErrorResponse (SQLSTATE 53300, "too many
  /// connections") and are closed — backpressure instead of resource
  /// exhaustion.
  size_t max_connections{64};
  /// Size of the epoll I/O thread pool. These threads do no query work — just
  /// framing and socket I/O — so a handful suffices for thousands of
  /// connections.
  size_t io_threads{2};
  /// Workers for the executor pool that Start() installs when the current
  /// scheduler has none (0 = one per hardware thread). An already-installed
  /// worker-backed scheduler is used as-is.
  uint32_t executor_workers{0};
  /// Statement-level admission control: maximum statements queued + running
  /// across all connections. Statements beyond it are rejected with SQLSTATE
  /// 53300 (the connection survives). 0 = unlimited.
  uint64_t admission_capacity{256};
  /// Serialized-response byte budget per statement; a result that would
  /// exceed it becomes a SQLSTATE 53200 error. 0 = unlimited.
  uint64_t per_query_memory_budget{0};
  /// Connections idle (no in-flight work) longer than this are closed with
  /// SQLSTATE 57P05; 0 disables. Enforcement granularity is the I/O sweep
  /// interval.
  std::chrono::milliseconds idle_timeout{0};
  /// Slow-reader protection: a connection whose unflushed output exceeds this
  /// bound is dropped instead of buffering unboundedly. 0 = unlimited.
  size_t max_output_buffer{64u << 20};
  /// Per-statement cooperative timeout; 0 disables. Statements poll the
  /// deadline at chunk boundaries, so enforcement lags by at most one chunk.
  std::chrono::milliseconds statement_timeout{0};
  /// Auto-commit conflict retry budget per statement (see SqlPipeline).
  uint32_t max_conflict_retries{3};
  /// Warm restart: if non-empty and the directory holds a published snapshot
  /// manifest, Start() restores every table of that snapshot before accepting
  /// connections, statistics included — the optimizer is warm at the first
  /// query. An empty or missing directory is not an error (cold start); a
  /// corrupt snapshot is.
  std::string restore_directory;
  /// Write-ahead logging (DESIGN.md §5g): if non-empty, Start() replays the
  /// redo log on top of the restored snapshot (crash recovery) and then — for
  /// durability != kOff — enables logging of every commit into this
  /// directory. Empty disables the WAL entirely.
  std::string wal_directory;
  /// kSync: COMMIT blocks until the group-commit flusher has fsynced the
  /// transaction's log record (no acknowledged commit can be lost). kAsync:
  /// records are written but COMMIT does not wait for the fsync. kOff: no
  /// logging even with a wal_directory (replay still runs on startup).
  persistence::DurabilityMode durability{persistence::DurabilityMode::kSync};
  /// How long the flusher gathers commits before each fsync (batching lever;
  /// see bench/wal_commit.cpp).
  uint32_t group_commit_window_us{100};
  /// Per-statement log line on stderr: status, execution time, plan-cache
  /// hit, result-cache reuse counters (probes/hits/bytes saved), WAL
  /// durability wait, and the connection/admission gauges of the whole server.
  bool log_statements{false};
  /// Ignored; kept only so perfbench/ compiles, and removed with its assignment there.
  bool jit{false};
};

/// TCP/IP server implementing the subset of the PostgreSQL v3 wire protocol
/// needed to receive SQL queries and return results (paper §2.5: existing
/// psql clients and drivers can connect; authentication/SSL are deliberately
/// not implemented to keep the server lean). Simple queries and the extended
/// protocol (Parse/Bind/Describe/Execute — wire-level prepared statements
/// binding into the SqlPipeline placeholder machinery) are supported; see
/// Session for the per-connection state machine.
///
/// Connection handling (DESIGN.md §5i): a small fixed pool of I/O threads
/// drives all sockets through epoll. Non-blocking reads feed the sessions,
/// statements run as scheduler jobs, and responses flush with EPOLLOUT
/// backpressure. Thousands of mostly-idle connections cost file descriptors,
/// not threads.
///
/// Fault containment: socket errors are returned (never Assert-aborted), a
/// failing statement yields an ErrorResponse followed by ReadyForQuery on
/// that connection only, and Stop() drains gracefully — it cancels running
/// statements cooperatively and lets sessions flush their final response.
class Server {
 public:
  explicit Server(ServerConfig config) : config_(config) {}

  /// Convenience: binds 127.0.0.1:`port` with default config (0 = free port).
  explicit Server(uint16_t port) {
    config_.port = port;
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// The actually bound port (relevant with port 0); valid after Start().
  uint16_t port() const {
    return port_;
  }

  /// Creates, binds (SO_REUSEADDR), and listens on the socket, then starts
  /// the epoll I/O threads. Bind/listen failures — e.g. the port is taken — are
  /// returned as errors so callers can retry on another port instead of
  /// aborting the process.
  Result<uint16_t> Start();

  /// Graceful drain: marks the server draining (statements arriving from now
  /// on are born cancelled), cooperatively cancels running statements (reason
  /// kShutdown), stops accepting, lets sessions flush their final responses,
  /// and joins the I/O threads.
  void Stop();

  /// Sessions currently being served (for tests and monitoring).
  size_t active_connection_count() const;

  /// Aggregate observability counters (also served via SHOW SERVER STATS).
  const ServerStats& stats() const {
    return stats_;
  }

 private:
  /// Per-connection state, owned by one I/O thread. Executor jobs hold a
  /// shared_ptr, so teardown can close the socket while a statement is still
  /// finishing; the Session (and its transaction rollback) dies with the last
  /// reference.
  struct Connection {
    int fd{-1};
    uint64_t id{0};
    size_t io_index{0};
    std::unique_ptr<Session> session;
    /// The currently scheduled executor job, if any. The scheduler can drop a
    /// task without running it (injected dispatch fault) — the I/O sweep
    /// watches for done-but-failed tasks and reschedules (see
    /// RecoverFailedJob).
    std::shared_ptr<AbstractTask> active_task;
    /// Bytes taken from the session but not yet written (partial sends).
    std::string write_buffer;
    size_t write_offset{0};
    bool want_write{false};   // EPOLLOUT armed.
    bool reading{true};       // EPOLLIN armed (input throttle / drain).
    bool closed{false};
    std::chrono::steady_clock::time_point last_activity;
  };

  struct IoThread {
    int epoll_fd{-1};
    int event_fd{-1};  // Wakeups: executor-job completions, Stop().
    std::thread thread;
    /// Guards `connections` and `completions` (the accept thread inserts, the
    /// executor posts completions, Stop() sweeps).
    std::mutex mutex;
    std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections;
    std::vector<uint64_t> completions;
  };

  /// Snapshot restore, WAL replay/enable, socket setup.
  Result<uint16_t> Bootstrap();

  void IoLoop(size_t io_index);
  void AcceptReady();
  std::shared_ptr<Connection> FindConnection(IoThread& io, uint64_t id);
  void HandleReadable(IoThread& io, const std::shared_ptr<Connection>& connection);
  void FlushConnection(IoThread& io, const std::shared_ptr<Connection>& connection);
  void MaybeScheduleJob(const std::shared_ptr<Connection>& connection);
  void RecoverFailedJob(IoThread& io, const std::shared_ptr<Connection>& connection);
  void OnJobDone(size_t io_index, uint64_t id);
  void ProcessCompletions(IoThread& io);
  void SweepConnections(IoThread& io, bool force_teardown);
  void UpdateEpollInterest(IoThread& io, const std::shared_ptr<Connection>& connection);
  void Teardown(IoThread& io, const std::shared_ptr<Connection>& connection);

  ServerConfig config_;
  /// Atomic: I/O thread 0 accepts on it and closes it when the drain starts;
  /// Start() and Stop() set and reset it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_{0};
  std::atomic<bool> running_{false};
  /// Set (before the cancellation sweep) when Stop() begins: statements that
  /// arm after the sweep see it and are born cancelled — closes the window
  /// where a statement could slip past the sweep and run against a draining
  /// server.
  std::atomic<bool> draining_{false};
  /// Tells the I/O threads to drain and exit.
  std::atomic<bool> stopping_{false};

  ServerStats stats_;
  std::unique_ptr<AdmissionController> admission_;

  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::atomic<uint64_t> next_connection_id_{2};  // 0 = eventfd tag, 1 = listen tag.
  std::atomic<uint64_t> next_io_index_{0};
  /// Executor job tasks not yet destroyed (counted per task object, so even a
  /// task the scheduler drops without running is accounted for); Stop() waits
  /// for zero before releasing the I/O structures the jobs' completion
  /// callbacks touch.
  std::atomic<uint64_t> jobs_in_flight_{0};
  /// Whether Start() installed the executor scheduler (and Stop() must
  /// restore the immediate one).
  bool installed_scheduler_{false};
};

}  // namespace hyrise

#endif  // HYRISE_SRC_SERVER_SERVER_HPP_

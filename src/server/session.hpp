#ifndef HYRISE_SRC_SERVER_SESSION_HPP_
#define HYRISE_SRC_SERVER_SESSION_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "scheduler/cancellation_token.hpp"
#include "server/admission_controller.hpp"
#include "server/server_stats.hpp"
#include "types/all_type_variant.hpp"

namespace hyrise {

class TransactionContext;

/// Per-session tunables, copied from ServerConfig by the server front-end.
struct SessionConfig {
  std::chrono::milliseconds statement_timeout{0};
  uint32_t max_conflict_retries{3};
  bool log_statements{false};
  /// Serialized-response byte budget per statement; a result that would
  /// exceed it is replaced by a SQLSTATE 53200 error. 0 = unlimited.
  uint64_t per_query_memory_budget{0};
  /// Over-capacity connection: complete the startup handshake, send 53300,
  /// close — backpressure instead of resource exhaustion.
  bool reject_over_capacity{false};
  uint64_t session_id{0};
};

/// Per-connection wire-protocol state machine: frames are decoded on the
/// server's epoll I/O threads and executed in scheduler jobs. The split keeps
/// every socket syscall out of this class:
///
///   I/O side  — Ingest() consumes raw bytes, handles the startup phase, and
///               splits complete frames into a pending queue. Statement
///               frames ('Q', 'E') acquire their admission slot here, at
///               decode time, so the backlog is bounded before any job is
///               scheduled (see AdmissionController).
///   Executor  — TryBeginJob()/RunJob() drain the pending queue one frame at
///               a time: simple queries, and the extended protocol
///               Parse/Bind/Describe/Execute/Close/Sync binding into the
///               SqlPipeline prepared-statement machinery. At most one job
///               runs per session, so executor-side state (prepared
///               statements, portals, the session transaction) needs no lock.
///
/// Response bytes accumulate in an internal output buffer; the front-end
/// drains it with TakeOutput() and owns flushing + the slow-reader bound.
class Session {
 public:
  Session(SessionConfig config, ServerStats* stats, AdmissionController* admission,
          const std::atomic<bool>* draining);
  /// Teardown (only with no job active): releases admission slots of
  /// undrained frames and rolls back an open transaction — a dropped
  /// connection must not leak row locks.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- I/O-thread side --------------------------------------------------------

  /// Consumes `size` bytes of wire input: startup handshake, frame splitting,
  /// admission acquisition. On a protocol violation the 08P01 response is
  /// already in the output buffer and the session is marked closed.
  void Ingest(const char* data, size_t size);

  /// The session decided the connection must go away once pending output is
  /// flushed: protocol violation, Terminate, startup rejection.
  bool close_requested() const {
    return close_requested_.load(std::memory_order_acquire);
  }

  /// Frames decoded but not yet executed (input-throttle signal: the epoll
  /// front-end stops reading from a connection whose backlog grows).
  size_t pending_frame_count() const;

  /// Claims the single executor job if there is pending work and no job is
  /// active. The caller schedules RunJob() as a scheduler job.
  bool TryBeginJob();

  bool job_active() const;

  /// Recovery hook for the epoll front-end: the scheduler can drop a task
  /// without running it (injected fault in task dispatch). The owning I/O
  /// thread then releases the stale claim so the pending frames can be
  /// rescheduled. Only valid when the job body provably did not complete.
  void AbandonJobClaim();

  /// Appends buffered response bytes to `sink` and clears them.
  void TakeOutput(std::string& sink);

  size_t output_size() const;

  /// Cooperative shutdown/teardown: cancels whatever statement is running on
  /// this session (it finishes at its next chunk boundary and still sends its
  /// final ErrorResponse).
  void CancelActiveStatement(CancellationReason reason);

  /// Called (on the executor thread) after RunJob drained the queue — the
  /// epoll front-end uses it to get woken for flushing.
  void set_on_work_done(std::function<void()> callback) {
    on_work_done_ = std::move(callback);
  }

  uint64_t session_id() const {
    return config_.session_id;
  }

  // --- Executor side ----------------------------------------------------------

  /// Processes pending frames until the queue is empty, then releases the job
  /// claim and invokes the work-done callback.
  void RunJob();

 private:
  struct Frame {
    char type{'\0'};
    std::string payload;
    /// Statement frames only: false = admission rejected at decode time, the
    /// executor responds 53300 without executing.
    bool admitted{false};
    /// Whether this frame holds an admission slot that must be released.
    bool holds_slot{false};
  };

  struct PreparedStatement {
    std::string sql;
    std::vector<int32_t> param_type_oids;
  };

  struct Portal {
    std::string sql;
    std::vector<int32_t> param_type_oids;
    std::vector<AllTypeVariant> parameters;
  };

  enum class Phase { kStartup, kReady };

  // Decode helpers (I/O thread).
  bool ProcessStartupBuffer();
  void FailProtocol(const std::string& message);

  // Frame handlers (executor thread).
  void ProcessFrame(Frame& frame);
  void HandleSimpleQuery(const Frame& frame);
  void HandleParse(const Frame& frame);
  void HandleBind(const Frame& frame);
  void HandleDescribe(const Frame& frame);
  void HandleExecute(Frame& frame);
  void HandleClose(const Frame& frame);
  void HandleSync();

  /// Shared statement executor: runs `sql` (with bound `parameters`) through
  /// a SqlPipeline and appends the serialized response. `extended` selects
  /// the response shape (no ReadyForQuery; errors skip until Sync).
  void ExecuteStatement(const std::string& sql, const std::vector<AllTypeVariant>& parameters, bool extended);

  /// SHOW SERVER STATS introspection (DESIGN.md §5i); true if intercepted.
  bool TryHandleShowStats(const std::string& sql, bool extended);

  char TransactionStatus() const;
  void AppendOutput(const std::string& bytes);
  void ExtendedError(const std::string& message, const std::string& sqlstate);

  SessionConfig config_;
  ServerStats* stats_;
  AdmissionController* admission_;
  const std::atomic<bool>* draining_;

  // --- Shared between I/O thread and executor (guarded by mutex_) -------------
  mutable std::mutex mutex_;
  std::deque<Frame> pending_;
  std::string output_;
  bool job_active_{false};
  std::shared_ptr<CancellationSource> active_statement_;

  std::atomic<bool> close_requested_{false};

  // --- I/O-thread only --------------------------------------------------------
  Phase phase_{Phase::kStartup};
  std::string input_;
  bool decode_stopped_{false};

  // --- Executor only (serialized by the single-job invariant) -----------------
  std::shared_ptr<TransactionContext> transaction_;
  std::unordered_map<std::string, PreparedStatement> prepared_statements_;
  std::unordered_map<std::string, Portal> portals_;
  bool skip_until_sync_{false};

  std::function<void()> on_work_done_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_SERVER_SESSION_HPP_

#include "server/session.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "concurrency/transaction_context.hpp"
#include "hyrise.hpp"
#include "server/wire_format.hpp"
#include "sql/sql_parser.hpp"
#include "sql/sql_pipeline.hpp"
#include "storage/table.hpp"

namespace hyrise {

namespace {

const char* StatusName(SqlPipelineStatus status) {
  switch (status) {
    case SqlPipelineStatus::kSuccess:
      return "success";
    case SqlPipelineStatus::kFailure:
      return "failure";
    case SqlPipelineStatus::kRolledBack:
      return "rolled_back";
    case SqlPipelineStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// One line per statement, machine-grepable: timing, both cache layers, WAL
/// wait, plus the connection and the server-wide admission
/// counters — reuse and overload behavior are observable in production
/// without a profiler (DESIGN.md §5i).
void LogStatement(uint64_t session_id, const std::string& query, SqlPipelineStatus status,
                  const SqlPipelineMetrics& metrics, const ServerStats& stats) {
  auto preview = query.substr(0, 120);
  for (auto& character : preview) {
    if (character == '\n' || character == '\r') {
      character = ' ';
    }
  }
  std::fprintf(stderr,
               "[statement] conn=%llu status=%s execute_ms=%.3f pqp_cache_hit=%d "
               "result_cache_probes=%llu result_cache_hits=%llu result_cache_bytes_saved=%llu retries=%u "
               "wal_wait_ms=%.3f active_conns=%llu queued=%llu admitted=%llu rejected=%llu sql=\"%s\"\n",
               static_cast<unsigned long long>(session_id), StatusName(status),
               static_cast<double>(metrics.execute_ns) / 1e6, metrics.pqp_cache_hit ? 1 : 0,
               static_cast<unsigned long long>(metrics.result_cache_probes),
               static_cast<unsigned long long>(metrics.result_cache_hits),
               static_cast<unsigned long long>(metrics.result_cache_bytes_saved), metrics.conflict_retries,
               static_cast<double>(metrics.wal_wait_ns) / 1e6,
               static_cast<unsigned long long>(stats.active_connections.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(stats.admission_queue_depth.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(stats.statements_admitted.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(stats.statements_rejected.load(std::memory_order_relaxed)),
               preview.c_str());
}

/// Text-format parameter -> column value, guided by the OID the client
/// declared in Parse (0 / unknown = infer: integer, then float, else string).
bool TextToVariant(const std::string& text, int32_t oid, AllTypeVariant& out) {
  const auto parse_int = [&](auto& value) {
    const auto [end, errc] = std::from_chars(text.data(), text.data() + text.size(), value);
    return errc == std::errc{} && end == text.data() + text.size();
  };
  const auto parse_double = [&](double& value) {
    if (text.empty()) {
      return false;
    }
    char* end = nullptr;
    value = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
  };
  switch (wire::DataTypeForOid(oid)) {
    case DataType::kInt: {
      auto value = int32_t{};
      if (!parse_int(value)) {
        return false;
      }
      out = value;
      return true;
    }
    case DataType::kLong: {
      auto value = int64_t{};
      if (!parse_int(value)) {
        return false;
      }
      out = value;
      return true;
    }
    case DataType::kFloat: {
      auto value = double{};
      if (!parse_double(value)) {
        return false;
      }
      out = static_cast<float>(value);
      return true;
    }
    case DataType::kDouble: {
      auto value = double{};
      if (!parse_double(value)) {
        return false;
      }
      out = value;
      return true;
    }
    default:
      break;
  }
  if (oid == 0) {
    // Undeclared: infer. Integers stay integers (predicates against INT
    // columns must compare numerically), decimals become doubles, everything
    // else is text.
    auto as_long = int64_t{};
    if (const auto [end, errc] = std::from_chars(text.data(), text.data() + text.size(), as_long);
        errc == std::errc{} && end == text.data() + text.size()) {
      if (as_long >= INT32_MIN && as_long <= INT32_MAX) {
        out = static_cast<int32_t>(as_long);
      } else {
        out = as_long;
      }
      return true;
    }
    auto as_double = double{};
    char* end = nullptr;
    if (!text.empty() && (as_double = std::strtod(text.c_str(), &end), end == text.c_str() + text.size())) {
      out = as_double;
      return true;
    }
  }
  out = text;
  return true;
}

/// Reads a NUL-terminated string starting at `offset`; false if unterminated.
bool ReadCString(const std::string& payload, size_t& offset, std::string& out) {
  const auto end = payload.find('\0', offset);
  if (end == std::string::npos) {
    return false;
  }
  out = payload.substr(offset, end - offset);
  offset = end + 1;
  return true;
}

bool CanRead(const std::string& payload, size_t offset, size_t bytes) {
  return offset + bytes <= payload.size();
}

/// Case-insensitive match of `sql` (modulo whitespace and a trailing ';')
/// against the introspection statement.
bool IsShowServerStats(const std::string& sql) {
  auto words = std::vector<std::string>{};
  auto current = std::string{};
  for (const auto character : sql) {
    if (std::isspace(static_cast<unsigned char>(character)) || character == ';') {
      if (!current.empty()) {
        words.push_back(current);
        current.clear();
      }
      continue;
    }
    current.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(character))));
  }
  if (!current.empty()) {
    words.push_back(current);
  }
  return words.size() == 3 && words[0] == "SHOW" && words[1] == "SERVER" && words[2] == "STATS";
}

}  // namespace

Session::Session(SessionConfig config, ServerStats* stats, AdmissionController* admission,
                 const std::atomic<bool>* draining)
    : config_(config), stats_(stats), admission_(admission), draining_(draining) {}

Session::~Session() {
  {
    const auto lock = std::lock_guard{mutex_};
    for (const auto& frame : pending_) {
      if (frame.holds_slot) {
        admission_->Release();
      }
    }
  }
  // A dropped connection must not leak its transaction: release all row locks
  // and undo partial effects. No job is active — a running executor job keeps
  // its connection, and with it this session, alive until the job returns —
  // so the executor-side field is safe to touch.
  if (transaction_ && transaction_->IsActive()) {
    transaction_->Rollback();
  }
}

// --- I/O-thread side ----------------------------------------------------------

void Session::Ingest(const char* data, size_t size) {
  if (decode_stopped_) {
    return;
  }
  input_.append(data, size);
  auto offset = size_t{0};

  // Startup phase: length-prefixed message without a type byte. SSLRequest is
  // answered with 'N' (not supported), after which the client retries with a
  // plain StartupMessage (parameters ignored; no authentication, paper §2.5).
  while (phase_ == Phase::kStartup && !decode_stopped_) {
    if (input_.size() - offset < 8) {
      break;
    }
    const auto length = wire::ReadInt32(input_.data() + offset);
    if (length < 8 || length > wire::kMaxStartupLength) {
      // Malformed startup — not a PostgreSQL client. Drop silently.
      decode_stopped_ = true;
      close_requested_.store(true, std::memory_order_release);
      break;
    }
    if (input_.size() - offset < static_cast<size_t>(length)) {
      break;
    }
    const auto code = wire::ReadInt32(input_.data() + offset + 4);
    offset += static_cast<size_t>(length);
    if (code == wire::kSslRequestCode) {
      AppendOutput("N");
      continue;
    }
    // Backpressure: over-cap clients get a proper protocol-level refusal
    // instead of a hung or reset connection.
    if (config_.reject_over_capacity) {
      stats_->connections_rejected.fetch_add(1, std::memory_order_relaxed);
      AppendOutput(wire::ErrorResponse("sorry, too many clients already", "53300"));
      decode_stopped_ = true;
      close_requested_.store(true, std::memory_order_release);
      break;
    }
    auto greeting = wire::Message('R', [] {
      auto payload = std::string{};
      wire::AppendInt32(payload, 0);  // AuthenticationOk.
      return payload;
    }());
    {
      auto status = std::string{"server_version"};
      status.push_back('\0');
      status += "14.0 (hyrise-repro)";
      status.push_back('\0');
      greeting += wire::Message('S', status);
    }
    greeting += wire::ReadyForQuery();
    AppendOutput(greeting);
    phase_ = Phase::kReady;
  }

  // Regular frames: type byte + length (including itself) + payload.
  while (phase_ == Phase::kReady && !decode_stopped_ && input_.size() - offset >= 5) {
    const auto type = input_[offset];
    const auto length = wire::ReadInt32(input_.data() + offset + 1);
    if (length < 4 || length > wire::kMaxMessageLength) {
      FailProtocol("malformed message: invalid length");
      break;
    }
    const auto frame_size = size_t{1} + static_cast<size_t>(length);
    if (input_.size() - offset < frame_size) {
      break;
    }
    auto frame = Frame{};
    frame.type = type;
    frame.payload = input_.substr(offset + 5, static_cast<size_t>(length) - 4);
    offset += frame_size;
    if (type == 'X') {  // Terminate: close after in-flight work flushed.
      decode_stopped_ = true;
      close_requested_.store(true, std::memory_order_release);
      break;
    }
    // Statement frames acquire their admission slot here, at decode time, so
    // the backlog of queued-but-unexecuted statements is what the controller
    // bounds (see AdmissionController).
    if (type == 'Q' || type == 'E') {
      frame.admitted = admission_->TryAdmit();
      frame.holds_slot = frame.admitted;
    }
    {
      const auto lock = std::lock_guard{mutex_};
      pending_.push_back(std::move(frame));
    }
  }
  input_.erase(0, offset);
}

void Session::FailProtocol(const std::string& message) {
  stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  AppendOutput(wire::ErrorResponse(message, "08P01"));
  decode_stopped_ = true;
  close_requested_.store(true, std::memory_order_release);
}

size_t Session::pending_frame_count() const {
  const auto lock = std::lock_guard{mutex_};
  return pending_.size();
}

bool Session::TryBeginJob() {
  const auto lock = std::lock_guard{mutex_};
  if (job_active_ || pending_.empty()) {
    return false;
  }
  job_active_ = true;
  return true;
}

bool Session::job_active() const {
  const auto lock = std::lock_guard{mutex_};
  return job_active_;
}

void Session::AbandonJobClaim() {
  const auto lock = std::lock_guard{mutex_};
  job_active_ = false;
}

void Session::TakeOutput(std::string& sink) {
  const auto lock = std::lock_guard{mutex_};
  if (sink.empty()) {
    sink.swap(output_);
  } else {
    sink.append(output_);
    output_.clear();
  }
}

size_t Session::output_size() const {
  const auto lock = std::lock_guard{mutex_};
  return output_.size();
}

void Session::AppendOutput(const std::string& bytes) {
  stats_->bytes_sent.fetch_add(bytes.size(), std::memory_order_relaxed);
  const auto lock = std::lock_guard{mutex_};
  output_ += bytes;
}

void Session::CancelActiveStatement(CancellationReason reason) {
  const auto lock = std::lock_guard{mutex_};
  if (active_statement_) {
    active_statement_->RequestCancellation(reason);
  }
}

// --- Executor side ------------------------------------------------------------

void Session::RunJob() {
  while (true) {
    auto frame = Frame{};
    {
      const auto lock = std::lock_guard{mutex_};
      if (pending_.empty()) {
        job_active_ = false;
        break;
      }
      frame = std::move(pending_.front());
      pending_.pop_front();
    }
    try {
      ProcessFrame(frame);
    } catch (const std::exception& exception) {
      // A frame handler must never unwind into the executor: contain the
      // damage to this connection and keep the protocol state sane.
      stats_->statements_failed.fetch_add(1, std::memory_order_relaxed);
      AppendOutput(wire::ErrorResponse(std::string{"Internal error: "} + exception.what(), "42601") +
                   wire::ReadyForQuery(TransactionStatus()));
    }
    // Slot release lives here, not in the handlers, so no exit path (early
    // return, skip-until-sync, exception) can leak an admission slot.
    if (frame.holds_slot) {
      admission_->Release();
      frame.holds_slot = false;
    }
  }
  if (on_work_done_) {
    on_work_done_();
  }
}

void Session::ProcessFrame(Frame& frame) {
  // After an extended-protocol error, everything up to the next Sync is
  // discarded (RunJob still returns the admission slots of skipped frames).
  if (skip_until_sync_ && frame.type != 'S') {
    return;
  }
  switch (frame.type) {
    case 'Q':
      HandleSimpleQuery(frame);
      return;
    case 'P':
      HandleParse(frame);
      return;
    case 'B':
      HandleBind(frame);
      return;
    case 'D':
      HandleDescribe(frame);
      return;
    case 'E':
      HandleExecute(frame);
      return;
    case 'C':
      HandleClose(frame);
      return;
    case 'S':
      HandleSync();
      return;
    case 'H':  // Flush: output is always flushed eagerly.
      return;
    default:
      AppendOutput(wire::ErrorResponse("Unsupported message type", "08P01") +
                   wire::ReadyForQuery(TransactionStatus()));
      return;
  }
}

char Session::TransactionStatus() const {
  return transaction_ && transaction_->IsActive() ? 'T' : 'I';
}

void Session::ExtendedError(const std::string& message, const std::string& sqlstate) {
  AppendOutput(wire::ErrorResponse(message, sqlstate));
  skip_until_sync_ = true;
}

void Session::HandleSimpleQuery(const Frame& frame) {
  const auto terminator = frame.payload.find('\0');
  const auto query = frame.payload.substr(0, terminator == std::string::npos ? frame.payload.size() : terminator);
  if (!frame.admitted) {
    AppendOutput(wire::ErrorResponse("admission queue full — too many queued statements, try again later", "53300") +
                 wire::ReadyForQuery(TransactionStatus()));
    return;
  }
  ExecuteStatement(query, {}, /*extended=*/false);
}

void Session::HandleParse(const Frame& frame) {
  auto offset = size_t{0};
  auto name = std::string{};
  auto sql = std::string{};
  if (!ReadCString(frame.payload, offset, name) || !ReadCString(frame.payload, offset, sql) ||
      !CanRead(frame.payload, offset, 2)) {
    ExtendedError("malformed Parse message", "08P01");
    return;
  }
  const auto type_count = wire::ReadInt16(frame.payload.data() + offset);
  offset += 2;
  if (type_count < 0 || !CanRead(frame.payload, offset, static_cast<size_t>(type_count) * 4)) {
    ExtendedError("malformed Parse message", "08P01");
    return;
  }
  auto oids = std::vector<int32_t>{};
  oids.reserve(static_cast<size_t>(type_count));
  for (auto index = int16_t{0}; index < type_count; ++index) {
    oids.push_back(wire::ReadInt32(frame.payload.data() + offset));
    offset += 4;
  }
  // Validate eagerly so Parse reports syntax errors — the plan itself is
  // built (and cached by SQL text, so shared across sessions) at the first
  // Execute.
  if (const auto parsed = sql::ParseSql(sql); !parsed.ok()) {
    ExtendedError(parsed.error(), "42601");
    return;
  }
  prepared_statements_[name] = PreparedStatement{std::move(sql), std::move(oids)};
  stats_->prepared_statements_parsed.fetch_add(1, std::memory_order_relaxed);
  AppendOutput(wire::ParseComplete());
}

void Session::HandleBind(const Frame& frame) {
  auto offset = size_t{0};
  auto portal_name = std::string{};
  auto statement_name = std::string{};
  if (!ReadCString(frame.payload, offset, portal_name) || !ReadCString(frame.payload, offset, statement_name) ||
      !CanRead(frame.payload, offset, 2)) {
    ExtendedError("malformed Bind message", "08P01");
    return;
  }
  const auto statement = prepared_statements_.find(statement_name);
  if (statement == prepared_statements_.end()) {
    ExtendedError("prepared statement \"" + statement_name + "\" does not exist", "26000");
    return;
  }

  const auto format_count = wire::ReadInt16(frame.payload.data() + offset);
  offset += 2;
  if (format_count < 0 || !CanRead(frame.payload, offset, static_cast<size_t>(format_count) * 2)) {
    ExtendedError("malformed Bind message", "08P01");
    return;
  }
  for (auto index = int16_t{0}; index < format_count; ++index) {
    if (wire::ReadInt16(frame.payload.data() + offset) != 0) {
      ExtendedError("binary parameter format not supported", "0A000");
      return;
    }
    offset += 2;
  }

  if (!CanRead(frame.payload, offset, 2)) {
    ExtendedError("malformed Bind message", "08P01");
    return;
  }
  const auto parameter_count = wire::ReadInt16(frame.payload.data() + offset);
  offset += 2;
  if (parameter_count < 0) {
    ExtendedError("malformed Bind message", "08P01");
    return;
  }
  auto parameters = std::vector<AllTypeVariant>{};
  parameters.reserve(static_cast<size_t>(parameter_count));
  const auto& oids = statement->second.param_type_oids;
  for (auto index = int16_t{0}; index < parameter_count; ++index) {
    if (!CanRead(frame.payload, offset, 4)) {
      ExtendedError("malformed Bind message", "08P01");
      return;
    }
    const auto value_length = wire::ReadInt32(frame.payload.data() + offset);
    offset += 4;
    if (value_length < 0) {  // -1 = NULL.
      parameters.push_back(kNullVariant);
      continue;
    }
    if (!CanRead(frame.payload, offset, static_cast<size_t>(value_length))) {
      ExtendedError("malformed Bind message", "08P01");
      return;
    }
    const auto text = frame.payload.substr(offset, static_cast<size_t>(value_length));
    offset += static_cast<size_t>(value_length);
    const auto oid = static_cast<size_t>(index) < oids.size() ? oids[static_cast<size_t>(index)] : int32_t{0};
    auto value = AllTypeVariant{};
    if (!TextToVariant(text, oid, value)) {
      ExtendedError("invalid text representation for parameter " + std::to_string(index + 1) + ": \"" + text + "\"",
                    "22P02");
      return;
    }
    parameters.push_back(std::move(value));
  }

  if (!CanRead(frame.payload, offset, 2)) {
    ExtendedError("malformed Bind message", "08P01");
    return;
  }
  const auto result_format_count = wire::ReadInt16(frame.payload.data() + offset);
  offset += 2;
  for (auto index = int16_t{0}; index < result_format_count; ++index) {
    if (!CanRead(frame.payload, offset, 2) || wire::ReadInt16(frame.payload.data() + offset) != 0) {
      ExtendedError("binary result format not supported", "0A000");
      return;
    }
    offset += 2;
  }

  portals_[portal_name] = Portal{statement->second.sql, oids, std::move(parameters)};
  AppendOutput(wire::BindComplete());
}

void Session::HandleDescribe(const Frame& frame) {
  if (frame.payload.size() < 2) {
    ExtendedError("malformed Describe message", "08P01");
    return;
  }
  const auto kind = frame.payload[0];
  auto offset = size_t{1};
  auto name = std::string{};
  if (!ReadCString(frame.payload, offset, name)) {
    ExtendedError("malformed Describe message", "08P01");
    return;
  }
  if (kind == 'S') {
    const auto statement = prepared_statements_.find(name);
    if (statement == prepared_statements_.end()) {
      ExtendedError("prepared statement \"" + name + "\" does not exist", "26000");
      return;
    }
    auto oids = statement->second.param_type_oids;
    for (auto& oid : oids) {
      if (oid == 0) {
        oid = 25;  // Undeclared parameters describe as text.
      }
    }
    // Result-set metadata ships with the Execute response (RowDescription
    // precedes the rows) — the schema is not known before planning, so
    // Describe answers NoData here. Documented protocol subset, DESIGN.md §5i.
    AppendOutput(wire::ParameterDescription(oids) + wire::NoData());
    return;
  }
  if (kind == 'P') {
    if (!portals_.contains(name)) {
      ExtendedError("portal \"" + name + "\" does not exist", "26000");
      return;
    }
    AppendOutput(wire::NoData());
    return;
  }
  ExtendedError("malformed Describe message", "08P01");
}

void Session::HandleExecute(Frame& frame) {
  auto offset = size_t{0};
  auto portal_name = std::string{};
  if (!ReadCString(frame.payload, offset, portal_name)) {
    ExtendedError("malformed Execute message", "08P01");
    return;
  }
  if (!frame.admitted) {
    ExtendedError("admission queue full — too many queued statements, try again later", "53300");
    return;
  }
  const auto portal = portals_.find(portal_name);
  if (portal == portals_.end()) {
    ExtendedError("portal \"" + portal_name + "\" does not exist", "26000");
    return;
  }
  // The row-limit operand is accepted but ignored: every Execute runs the
  // portal to completion (documented protocol subset, DESIGN.md §5i).
  stats_->prepared_executions.fetch_add(1, std::memory_order_relaxed);
  ExecuteStatement(portal->second.sql, portal->second.parameters, /*extended=*/true);
}

void Session::HandleClose(const Frame& frame) {
  if (frame.payload.size() < 2) {
    ExtendedError("malformed Close message", "08P01");
    return;
  }
  const auto kind = frame.payload[0];
  auto offset = size_t{1};
  auto name = std::string{};
  if (!ReadCString(frame.payload, offset, name)) {
    ExtendedError("malformed Close message", "08P01");
    return;
  }
  // Closing a nonexistent statement/portal is not an error (PostgreSQL
  // semantics).
  if (kind == 'S') {
    prepared_statements_.erase(name);
  } else if (kind == 'P') {
    portals_.erase(name);
  } else {
    ExtendedError("malformed Close message", "08P01");
    return;
  }
  AppendOutput(wire::CloseComplete());
}

void Session::HandleSync() {
  skip_until_sync_ = false;
  AppendOutput(wire::ReadyForQuery(TransactionStatus()));
}

bool Session::TryHandleShowStats(const std::string& sql, bool extended) {
  if (!IsShowServerStats(sql)) {
    return false;
  }
  auto table = Table{TableColumnDefinitions{{"stat", DataType::kString, false}, {"value", DataType::kLong, false}},
                     TableType::kData};
  for (const auto& [name, value] : stats_->Snapshot()) {
    table.AppendRow({name, value});
  }
  auto response = wire::RowDescription(table);
  auto row_count = uint64_t{0};
  for (const auto& row : table.GetRows()) {
    response += wire::DataRow(row);
    ++row_count;
  }
  response += wire::CommandComplete("SHOW " + std::to_string(row_count));
  if (!extended) {
    response += wire::ReadyForQuery(TransactionStatus());
  }
  stats_->statements_completed.fetch_add(1, std::memory_order_relaxed);
  AppendOutput(response);
  return true;
}

void Session::ExecuteStatement(const std::string& sql, const std::vector<AllTypeVariant>& parameters,
                               bool extended) {
  if (TryHandleShowStats(sql, extended)) {
    return;
  }

  // Arm per-statement cooperative cancellation: timeout-driven if configured,
  // and always cancellable by the shutdown drain. A statement arriving after
  // Stop() began is born cancelled — this closes the PR 3 race where a
  // statement could slip past the cancellation sweep and run to completion
  // against a draining server.
  auto statement_cancellation = std::make_shared<CancellationSource>(
      config_.statement_timeout.count() > 0 ? CancellationSource::WithTimeout(config_.statement_timeout)
                                            : CancellationSource{});
  if (draining_ && draining_->load(std::memory_order_acquire)) {
    statement_cancellation->RequestCancellation(CancellationReason::kShutdown);
  }
  {
    const auto lock = std::lock_guard{mutex_};
    active_statement_ = statement_cancellation;
  }

  // Per-connection isolation: whatever a statement does — parse error,
  // conflict, injected fault, even an unexpected exception — the damage is an
  // ErrorResponse on this connection, never a dead process.
  auto status = SqlPipelineStatus::kFailure;
  auto error_message = std::string{};
  auto result_table = std::shared_ptr<const Table>{};
  auto metrics = SqlPipelineMetrics{};
  try {
    auto pipeline = SqlPipeline::Builder{sql}
                        .WithTransactionContext(transaction_)
                        .WithCancellationToken(statement_cancellation->token())
                        .WithMaxConflictRetries(config_.max_conflict_retries)
                        .WithParameters(parameters)
                        .Build();
    status = pipeline.Execute();
    transaction_ = pipeline.transaction_context();
    error_message = pipeline.error_message();
    result_table = pipeline.result_table();
    metrics = pipeline.metrics();
  } catch (const std::exception& exception) {
    status = SqlPipelineStatus::kFailure;
    error_message = std::string{"Internal error: "} + exception.what();
    if (transaction_ && transaction_->IsActive()) {
      transaction_->Rollback();
    }
    transaction_ = nullptr;
  }
  {
    const auto lock = std::lock_guard{mutex_};
    active_statement_ = nullptr;
  }

  // Aggregate observability (SHOW SERVER STATS, DESIGN.md §5i).
  if (metrics.pqp_cache_hit) {
    stats_->pqp_cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  stats_->result_cache_hits.fetch_add(metrics.result_cache_hits, std::memory_order_relaxed);
  stats_->conflict_retries.fetch_add(metrics.conflict_retries, std::memory_order_relaxed);
  stats_->wal_wait_ns.fetch_add(static_cast<uint64_t>(metrics.wal_wait_ns), std::memory_order_relaxed);
  if (config_.log_statements) {
    LogStatement(config_.session_id, sql, status, metrics, *stats_);
  }

  if (status != SqlPipelineStatus::kSuccess) {
    stats_->statements_failed.fetch_add(1, std::memory_order_relaxed);
    auto sqlstate = std::string{"42601"};
    auto message = error_message;
    if (status == SqlPipelineStatus::kRolledBack) {
      sqlstate = "40001";
      message = "transaction conflict, rolled back";
    } else if (status == SqlPipelineStatus::kCancelled) {
      sqlstate = "57014";
      if (message.empty()) {
        message = "query cancelled";
      }
    }
    if (extended) {
      ExtendedError(message, sqlstate);
    } else {
      AppendOutput(wire::ErrorResponse(message, sqlstate) + wire::ReadyForQuery(TransactionStatus()));
    }
    return;
  }

  // Serialize the result. The per-query memory budget bounds the serialized
  // response: a statement whose response outgrows it turns into a clean
  // SQLSTATE 53200 error instead of an unbounded buffer.
  auto response = std::string{};
  auto budget_exceeded = false;
  auto row_count = uint64_t{0};
  if (result_table) {
    response += wire::RowDescription(*result_table);
    const auto rows = result_table->GetRows();
    row_count = rows.size();
    for (const auto& row : rows) {
      response += wire::DataRow(row);
      if (config_.per_query_memory_budget != 0 && response.size() > config_.per_query_memory_budget) {
        budget_exceeded = true;
        break;
      }
    }
    response += wire::CommandComplete("SELECT " + std::to_string(rows.size()));
  } else {
    response += wire::CommandComplete("OK");
  }

  if (budget_exceeded) {
    stats_->memory_budget_rejections.fetch_add(1, std::memory_order_relaxed);
    stats_->statements_failed.fetch_add(1, std::memory_order_relaxed);
    const auto message = std::string{"per-query memory budget exceeded while serializing the result"};
    if (extended) {
      ExtendedError(message, "53200");
    } else {
      AppendOutput(wire::ErrorResponse(message, "53200") + wire::ReadyForQuery(TransactionStatus()));
    }
    return;
  }

  stats_->statements_completed.fetch_add(1, std::memory_order_relaxed);
  stats_->rows_sent.fetch_add(row_count, std::memory_order_relaxed);
  if (!extended) {
    response += wire::ReadyForQuery(TransactionStatus());
  }
  AppendOutput(response);
}

}  // namespace hyrise

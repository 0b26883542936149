#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "hyrise.hpp"
#include "persistence/snapshot_manager.hpp"
#include "scheduler/abstract_scheduler.hpp"
#include "scheduler/abstract_task.hpp"
#include "scheduler/node_queue_scheduler.hpp"
#include "server/wire_format.hpp"
#include "storage/storage_manager.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise {

namespace {

/// epoll_event user-data tags below the first connection id.
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kListenTag = 1;

/// Input throttle: stop reading from a connection once this many decoded
/// frames wait for the executor — a pipelining client cannot queue unbounded
/// work (the admission controller additionally bounds statements globally).
constexpr size_t kMaxPendingFrames = 128;

/// How long Stop() lets busy connections finish and flush before
/// force-closing them. Statements are cancelled at drain start, so this only
/// triggers for peers that stop reading their final response.
constexpr auto kDrainGrace = std::chrono::seconds{5};

/// Writes the whole buffer, retrying on EINTR and short writes; used for
/// best-effort teardown messages. Returns false if the peer is gone or the
/// non-blocking socket's buffer is full; a failed write never aborts.
bool SendAll(int fd, const std::string& data) {
  try {
    FAILPOINT("server/write");
  } catch (const InjectedFault&) {
    return false;  // Simulated broken pipe.
  }
  auto sent = size_t{0};
  while (sent < data.size()) {
    const auto result = send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (result < 0 && errno == EINTR) {
      continue;
    }
    if (result <= 0) {
      return false;
    }
    sent += static_cast<size_t>(result);
  }
  return true;
}

void DrainEventFd(int fd) {
  auto value = uint64_t{0};
  while (read(fd, &value, sizeof(value)) > 0) {
  }
}

void WakeEventFd(int fd) {
  const auto one = uint64_t{1};
  [[maybe_unused]] const auto written = write(fd, &one, sizeof(one));
}

}  // namespace

Server::~Server() {
  Stop();
}

Result<uint16_t> Server::Bootstrap() {
  // Warm restart before the first connection can arrive: restore the last
  // published snapshot (tables + statistics). A missing manifest means there
  // is nothing to restore yet (first boot) — that is a cold start, not an
  // error. An existing-but-broken snapshot is a real error: silently serving
  // an empty database instead of the user's data would be worse than failing.
  auto snapshot_cid = CommitID{0};
  if (!config_.restore_directory.empty()) {
    auto error_code = std::error_code{};
    const auto manifest_path = config_.restore_directory + "/" + persistence::kManifestFileName;
    if (std::filesystem::exists(manifest_path, error_code)) {
      const auto manifest = persistence::ReadManifest(config_.restore_directory);
      if (!manifest.ok()) {
        return Result<uint16_t>::Error("Warm restart failed: " + manifest.error());
      }
      const auto restored = Hyrise::Get().storage_manager.Restore(config_.restore_directory);
      if (!restored.ok()) {
        return Result<uint16_t>::Error("Warm restart failed: " + restored.error());
      }
      // The snapshot contains every commit with CID <= snapshot_cid; publish
      // that watermark so replayed (and future) commits allocate CIDs above it.
      snapshot_cid = manifest.value().snapshot_cid;
      Hyrise::Get().transaction_manager.SetLastCommitIdForRecovery(snapshot_cid);
    }
  }

  // Crash recovery: replay every logged commit the snapshot does not cover
  // (DESIGN.md §5g). A torn tail — the crash hit mid-append — is a clean stop,
  // anything else wrong with the log is a hard error: silently serving a
  // database that is missing acknowledged commits would be worse than failing.
  if (!config_.wal_directory.empty()) {
    const auto replayed = persistence::WalManager::Replay(config_.wal_directory, snapshot_cid);
    if (!replayed.ok()) {
      return Result<uint16_t>::Error("WAL recovery failed: " + replayed.error());
    }
    if (config_.log_statements) {
      const auto& stats = replayed.value();
      std::fprintf(stderr,
                   "[wal] recovery: segments=%llu records=%llu rows_inserted=%llu rows_deleted=%llu "
                   "tables_created=%llu tables_dropped=%llu torn_tail=%d discarded_bytes=%llu\n",
                   static_cast<unsigned long long>(stats.segments_scanned),
                   static_cast<unsigned long long>(stats.records_applied),
                   static_cast<unsigned long long>(stats.rows_inserted),
                   static_cast<unsigned long long>(stats.rows_deleted),
                   static_cast<unsigned long long>(stats.tables_created),
                   static_cast<unsigned long long>(stats.tables_dropped), stats.stopped_at_torn_record ? 1 : 0,
                   static_cast<unsigned long long>(stats.discarded_bytes));
    }
    if (config_.durability != persistence::DurabilityMode::kOff) {
      auto wal_config = persistence::WalConfig{};
      wal_config.directory = config_.wal_directory;
      wal_config.durability = config_.durability;
      wal_config.group_commit_window_us = config_.group_commit_window_us;
      wal_config.checkpoint_directory = config_.restore_directory;
      const auto enabled = Hyrise::Get().wal_manager->Enable(wal_config);
      if (!enabled.ok()) {
        return Result<uint16_t>::Error("Cannot enable write-ahead logging: " + enabled.error());
      }
    }
  }

  const auto fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Result<uint16_t>::Error(std::string{"Cannot create server socket: "} + std::strerror(errno));
  }
  // SO_REUSEADDR: a restarted server (or a test retrying after a port clash)
  // can rebind while the previous socket lingers in TIME_WAIT.
  const auto reuse = int{1};
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  auto address = sockaddr_in{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(config_.port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
    auto error = std::string{"Cannot bind port "} + std::to_string(config_.port) + ": " + std::strerror(errno);
    close(fd);
    return Result<uint16_t>::Error(std::move(error));
  }
  if (listen(fd, config_.backlog) != 0) {
    auto error = std::string{"Cannot listen: "} + std::strerror(errno);
    close(fd);
    return Result<uint16_t>::Error(std::move(error));
  }

  auto bound = sockaddr_in{};
  auto bound_size = socklen_t{sizeof(bound)};
  getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_size);
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd);
  return port_;
}

Result<uint16_t> Server::Start() {
  const auto bootstrapped = Bootstrap();
  if (!bootstrapped.ok()) {
    return bootstrapped;
  }
  admission_ = std::make_unique<AdmissionController>(config_.admission_capacity, &stats_);
  draining_.store(false);
  stopping_.store(false);
  running_.store(true);

  // Statements run as scheduler jobs; an immediate-execution scheduler would
  // run them inline on the I/O threads and serialize the server, so install a
  // worker pool if none is present. A scheduler the embedder already
  // installed (with workers) is used as-is.
  if (Hyrise::Get().scheduler()->worker_count() == 0) {
    auto workers = config_.executor_workers;
    if (workers == 0) {
      workers = std::clamp(std::thread::hardware_concurrency(), 2u, 16u);
    }
    Hyrise::Get().SetScheduler(std::make_shared<NodeQueueScheduler>(1, workers));
    installed_scheduler_ = true;
  }

  const auto io_thread_count = std::max<size_t>(1, config_.io_threads);
  io_threads_.clear();
  for (auto index = size_t{0}; index < io_thread_count; ++index) {
    auto io = std::make_unique<IoThread>();
    io->epoll_fd = epoll_create1(0);
    io->event_fd = eventfd(0, EFD_NONBLOCK);
    if (io->epoll_fd < 0 || io->event_fd < 0) {
      const auto error = std::string{"Cannot create epoll/eventfd: "} + std::strerror(errno);
      for (auto& created : io_threads_) {
        close(created->epoll_fd);
        close(created->event_fd);
      }
      io_threads_.clear();
      close(listen_fd_.exchange(-1));
      running_.store(false);
      return Result<uint16_t>::Error(error);
    }
    auto wake_event = epoll_event{};
    wake_event.events = EPOLLIN;
    wake_event.data.u64 = kWakeTag;
    epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->event_fd, &wake_event);
    io_threads_.push_back(std::move(io));
  }

  // The listen socket lives in thread 0's epoll; accepted connections are
  // assigned round-robin across all I/O threads.
  {
    const auto listen_fd = listen_fd_.load();
    const auto flags = fcntl(listen_fd, F_GETFL, 0);
    fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);
    auto listen_event = epoll_event{};
    listen_event.events = EPOLLIN;
    listen_event.data.u64 = kListenTag;
    epoll_ctl(io_threads_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd, &listen_event);
  }

  for (auto index = size_t{0}; index < io_threads_.size(); ++index) {
    io_threads_[index]->thread = std::thread([this, index] {
      IoLoop(index);
    });
  }
  return port_;
}

void Server::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Draining first, cancellation sweep second: a statement that arms its
  // CancellationSource after the sweep ran still observes draining_ and is
  // born cancelled — without this order, it could slip between the two and
  // run to completion against a shutting-down server.
  draining_.store(true, std::memory_order_release);

  // Cancel every running statement, then tell the I/O threads to drain: they
  // stop reading, close the listener, flush remaining output, close
  // connections as they quiesce, and exit once none remain.
  for (const auto& io : io_threads_) {
    auto connections = std::vector<std::shared_ptr<Connection>>{};
    {
      const auto lock = std::lock_guard{io->mutex};
      connections.reserve(io->connections.size());
      for (const auto& [id, connection] : io->connections) {
        connections.push_back(connection);
      }
    }
    for (const auto& connection : connections) {
      connection->session->CancelActiveStatement(CancellationReason::kShutdown);
    }
  }
  stopping_.store(true, std::memory_order_release);
  for (const auto& io : io_threads_) {
    WakeEventFd(io->event_fd);
  }
  for (const auto& io : io_threads_) {
    if (io->thread.joinable()) {
      io->thread.join();
    }
  }
  {
    const auto fd = listen_fd_.exchange(-1);
    if (fd >= 0) {
      close(fd);
    }
  }
  // Executor jobs of force-closed connections may still be finishing; their
  // completion callbacks touch the IoThread structures, so wait before
  // releasing anything (the jobs were cancelled — this is bounded).
  while (jobs_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  for (const auto& io : io_threads_) {
    close(io->epoll_fd);
    close(io->event_fd);
  }
  io_threads_.clear();
  if (installed_scheduler_) {
    Hyrise::Get().SetScheduler(std::make_shared<ImmediateExecutionScheduler>());
    installed_scheduler_ = false;
  }
}

size_t Server::active_connection_count() const {
  return static_cast<size_t>(stats_.active_connections.load(std::memory_order_relaxed));
}

std::shared_ptr<Server::Connection> Server::FindConnection(IoThread& io, uint64_t id) {
  const auto lock = std::lock_guard{io.mutex};
  const auto iterator = io.connections.find(id);
  return iterator == io.connections.end() ? nullptr : iterator->second;
}

void Server::IoLoop(size_t io_index) {
  auto& io = *io_threads_[io_index];
  auto events = std::array<epoll_event, 64>{};
  auto drain_started = false;
  auto drain_deadline = std::chrono::steady_clock::time_point{};

  while (true) {
    auto timeout_ms = 200;
    if (stopping_.load(std::memory_order_acquire)) {
      timeout_ms = 20;
    } else if (config_.idle_timeout.count() > 0) {
      timeout_ms = static_cast<int>(std::clamp<int64_t>(config_.idle_timeout.count() / 4, 10, 200));
    }
    const auto ready = epoll_wait(io.epoll_fd, events.data(), static_cast<int>(events.size()), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (auto index = 0; index < ready; ++index) {
      const auto tag = events[static_cast<size_t>(index)].data.u64;
      const auto mask = events[static_cast<size_t>(index)].events;
      if (tag == kWakeTag) {
        DrainEventFd(io.event_fd);
        continue;
      }
      if (tag == kListenTag) {
        if (!stopping_.load(std::memory_order_acquire)) {
          AcceptReady();
        }
        continue;
      }
      const auto connection = FindConnection(io, tag);
      if (!connection || connection->closed) {
        continue;
      }
      if (mask & (EPOLLERR | EPOLLHUP)) {
        Teardown(io, connection);
        continue;
      }
      if (mask & EPOLLIN) {
        HandleReadable(io, connection);
      }
      if (!connection->closed && (mask & EPOLLOUT)) {
        FlushConnection(io, connection);
      }
    }
    ProcessCompletions(io);

    if (stopping_.load(std::memory_order_acquire)) {
      if (!drain_started) {
        drain_started = true;
        drain_deadline = std::chrono::steady_clock::now() + kDrainGrace;
        if (io_index == 0) {
          const auto fd = listen_fd_.exchange(-1);
          if (fd >= 0) {
            close(fd);  // epoll drops the registration with the fd.
          }
        }
      }
      const auto force = std::chrono::steady_clock::now() >= drain_deadline;
      SweepConnections(io, force);
      const auto lock = std::lock_guard{io.mutex};
      if (io.connections.empty()) {
        break;
      }
    } else {
      SweepConnections(io, /*force_teardown=*/false);
    }
  }
}

void Server::AcceptReady() {
  while (true) {
    const auto listen_fd = listen_fd_.load();
    if (listen_fd < 0) {
      return;
    }
    const auto fd = accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN: all pending connections accepted.
    }
    // Responses are built in full before sending, so Nagle only adds delayed-
    // ACK latency to the extended protocol's multi-frame exchanges.
    const auto no_delay = int{1};
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof(no_delay));
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    const auto active_before = stats_.active_connections.fetch_add(1, std::memory_order_relaxed);

    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->id = next_connection_id_.fetch_add(1, std::memory_order_relaxed);
    connection->io_index = next_io_index_.fetch_add(1, std::memory_order_relaxed) % io_threads_.size();
    connection->last_activity = std::chrono::steady_clock::now();
    auto session_config = SessionConfig{};
    session_config.statement_timeout = config_.statement_timeout;
    session_config.max_conflict_retries = config_.max_conflict_retries;
    session_config.log_statements = config_.log_statements;
    session_config.per_query_memory_budget = config_.per_query_memory_budget;
    session_config.reject_over_capacity = active_before >= config_.max_connections;
    session_config.session_id = connection->id;
    connection->session = std::make_unique<Session>(session_config, &stats_, admission_.get(), &draining_);
    connection->session->set_on_work_done([this, io_index = connection->io_index, id = connection->id] {
      OnJobDone(io_index, id);
    });

    auto& target = *io_threads_[connection->io_index];
    {
      const auto lock = std::lock_guard{target.mutex};
      target.connections.emplace(connection->id, connection);
    }
    auto event = epoll_event{};
    event.events = EPOLLIN;
    event.data.u64 = connection->id;
    if (epoll_ctl(target.epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
      const auto lock = std::lock_guard{target.mutex};
      target.connections.erase(connection->id);
      close(fd);
      stats_.active_connections.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void Server::UpdateEpollInterest(IoThread& io, const std::shared_ptr<Connection>& connection) {
  auto event = epoll_event{};
  event.events = (connection->reading ? EPOLLIN : 0u) | (connection->want_write ? EPOLLOUT : 0u);
  event.data.u64 = connection->id;
  epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, connection->fd, &event);
}

void Server::HandleReadable(IoThread& io, const std::shared_ptr<Connection>& connection) {
  auto buffer = std::array<char, 16384>{};
  while (true) {
    const auto received = recv(connection->fd, buffer.data(), buffer.size(), 0);
    if (received > 0) {
      connection->last_activity = std::chrono::steady_clock::now();
      connection->session->Ingest(buffer.data(), static_cast<size_t>(received));
      // Input throttle (slow-executor backpressure): stop reading while this
      // connection's decoded-frame backlog is deep; reading resumes when the
      // executor catches up (ProcessCompletions).
      if (connection->session->pending_frame_count() >= kMaxPendingFrames) {
        connection->reading = false;
        UpdateEpollInterest(io, connection);
        break;
      }
      if (static_cast<size_t>(received) < buffer.size()) {
        break;  // Socket very likely drained; EPOLLIN is level-triggered anyway.
      }
      continue;
    }
    if (received == 0) {  // Peer closed without Terminate.
      Teardown(io, connection);
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    Teardown(io, connection);
    return;
  }
  MaybeScheduleJob(connection);
  FlushConnection(io, connection);  // Greeting / decode-time errors.
}

void Server::FlushConnection(IoThread& io, const std::shared_ptr<Connection>& connection) {
  if (connection->closed) {
    return;
  }
  if (connection->write_offset == connection->write_buffer.size()) {
    connection->write_buffer.clear();
    connection->write_offset = 0;
  }
  connection->session->TakeOutput(connection->write_buffer);

  // Slow-reader protection: a peer that stops reading while responses keep
  // accumulating gets dropped instead of buffering without bound.
  if (config_.max_output_buffer != 0 &&
      connection->write_buffer.size() - connection->write_offset > config_.max_output_buffer) {
    stats_.slow_reader_kills.fetch_add(1, std::memory_order_relaxed);
    Teardown(io, connection);
    return;
  }

  if (connection->write_offset < connection->write_buffer.size()) {
    try {
      FAILPOINT("server/write");
    } catch (const InjectedFault&) {
      Teardown(io, connection);  // Simulated broken pipe.
      return;
    }
  }
  while (connection->write_offset < connection->write_buffer.size()) {
    const auto remaining = connection->write_buffer.size() - connection->write_offset;
    const auto sent =
        send(connection->fd, connection->write_buffer.data() + connection->write_offset, remaining, MSG_NOSIGNAL);
    if (sent > 0) {
      connection->write_offset += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) {
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: arm EPOLLOUT and resume when writable.
      if (!connection->want_write) {
        connection->want_write = true;
        UpdateEpollInterest(io, connection);
      }
      return;
    }
    Teardown(io, connection);
    return;
  }
  connection->write_buffer.clear();
  connection->write_offset = 0;
  if (connection->want_write) {
    connection->want_write = false;
    UpdateEpollInterest(io, connection);
  }
  // Everything flushed: honor a requested close (Terminate, protocol error,
  // startup rejection) once no work is in flight.
  if (connection->session->close_requested() && !connection->session->job_active() &&
      connection->session->pending_frame_count() == 0 && connection->session->output_size() == 0) {
    Teardown(io, connection);
  }
}

void Server::MaybeScheduleJob(const std::shared_ptr<Connection>& connection) {
  if (!connection->session->TryBeginJob()) {
    return;
  }
  jobs_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  // The in-flight count drops when the task object is destroyed, not when its
  // body returns: a task the scheduler drops without running (injected
  // dispatch fault) after its connection was torn down is unreachable for
  // RecoverFailedJob, and counting by destruction keeps Stop()'s drain wait
  // from hanging on it.
  auto in_flight_guard = std::shared_ptr<void>(nullptr, [this](void*) {
    jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  });
  auto task = std::make_shared<JobTask>([connection, guard = std::move(in_flight_guard)] {
    connection->session->RunJob();  // Never throws (frame errors are contained per connection).
  });
  connection->active_task = task;
  task->Schedule();
}

void Server::RecoverFailedJob(IoThread& io, const std::shared_ptr<Connection>& connection) {
  if (!connection->active_task || !connection->active_task->IsDone()) {
    return;
  }
  const auto failed = connection->active_task->failed();
  connection->active_task.reset();
  if (!failed || !connection->session->job_active()) {
    return;
  }
  // The scheduler dropped the task before its body ran (injected dispatch
  // fault): the job claim is stale. Release it and reschedule — the frames
  // were not executed, so re-running them is safe. The in-flight count needs
  // no adjustment: it is tied to task destruction.
  connection->session->AbandonJobClaim();
  MaybeScheduleJob(connection);
  FlushConnection(io, connection);
}

void Server::OnJobDone(size_t io_index, uint64_t id) {
  auto& io = *io_threads_[io_index];
  {
    const auto lock = std::lock_guard{io.mutex};
    io.completions.push_back(id);
  }
  WakeEventFd(io.event_fd);
}

void Server::ProcessCompletions(IoThread& io) {
  auto completions = std::vector<uint64_t>{};
  {
    const auto lock = std::lock_guard{io.mutex};
    completions.swap(io.completions);
  }
  for (const auto id : completions) {
    const auto connection = FindConnection(io, id);
    if (!connection || connection->closed) {
      continue;
    }
    connection->last_activity = std::chrono::steady_clock::now();
    RecoverFailedJob(io, connection);
    if (connection->closed) {
      continue;
    }
    // Resume reading if the frame backlog shrank below half the throttle.
    if (!connection->reading && !stopping_.load(std::memory_order_acquire) &&
        connection->session->pending_frame_count() < kMaxPendingFrames / 2) {
      connection->reading = true;
      UpdateEpollInterest(io, connection);
    }
    MaybeScheduleJob(connection);  // Frames may have queued while the job drained.
    FlushConnection(io, connection);
  }
}

void Server::SweepConnections(IoThread& io, bool force_teardown) {
  auto connections = std::vector<std::shared_ptr<Connection>>{};
  {
    const auto lock = std::lock_guard{io.mutex};
    connections.reserve(io.connections.size());
    for (const auto& [id, connection] : io.connections) {
      connections.push_back(connection);
    }
  }
  const auto now = std::chrono::steady_clock::now();
  const auto stopping = stopping_.load(std::memory_order_acquire);
  for (const auto& connection : connections) {
    if (connection->closed) {
      continue;
    }
    RecoverFailedJob(io, connection);
    if (connection->closed) {
      continue;
    }
    if (stopping) {
      if (connection->reading) {  // Drain: no new input.
        connection->reading = false;
        UpdateEpollInterest(io, connection);
      }
      FlushConnection(io, connection);
      if (connection->closed) {
        continue;
      }
      const auto quiesced = !connection->session->job_active() &&
                            connection->session->pending_frame_count() == 0 &&
                            connection->session->output_size() == 0 &&
                            connection->write_offset == connection->write_buffer.size();
      if (quiesced || force_teardown) {
        Teardown(io, connection);
      }
      continue;
    }
    // Idle reaping: only truly quiet connections (no queued frames, no
    // running statement, nothing left to flush) time out.
    if (config_.idle_timeout.count() > 0 && now - connection->last_activity > config_.idle_timeout &&
        !connection->session->job_active() && connection->session->pending_frame_count() == 0 &&
        connection->session->output_size() == 0 && connection->write_offset == connection->write_buffer.size()) {
      stats_.idle_timeouts.fetch_add(1, std::memory_order_relaxed);
      // Best-effort notification; the socket buffer is empty, so this will
      // not block for a connected peer.
      SendAll(connection->fd, wire::ErrorResponse("terminating connection due to idle timeout", "57P05"));
      Teardown(io, connection);
    }
  }
}

void Server::Teardown(IoThread& io, const std::shared_ptr<Connection>& connection) {
  if (connection->closed) {
    return;
  }
  connection->closed = true;
  // Break the Connection -> active_task -> lambda -> Connection shared_ptr
  // cycle: after the map erase below, RecoverFailedJob can never find this
  // connection to reset the task, and the cycle would leak Connection +
  // Session forever (open transactions never rolled back, admission slots of
  // undrained frames never released). The scheduler holds its own reference
  // while the task is pending/running, so a still-executing job is unaffected.
  connection->active_task.reset();
  epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, connection->fd, nullptr);
  close(connection->fd);
  stats_.active_connections.fetch_sub(1, std::memory_order_relaxed);
  const auto lock = std::lock_guard{io.mutex};
  io.connections.erase(connection->id);
  // The Session (open-transaction rollback, admission-slot release for
  // undrained frames) is destroyed with the last shared_ptr — immediately
  // here, or at the end of a still-running executor job.
}

}  // namespace hyrise

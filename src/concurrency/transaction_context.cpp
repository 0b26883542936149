#include "concurrency/transaction_context.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "hyrise.hpp"
#include "operators/abstract_operator.hpp"
#include "persistence/wal.hpp"
#include "utils/assert.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise {

TransactionContext::~TransactionContext() {
  // A transaction that registered write operators must be resolved explicitly
  // — silently dropping it would leak row locks and invisible rows. Loud in
  // debug; in release the safe recovery is a rollback.
  if (!IsActive() && phase() != TransactionPhase::kConflicted) {
    return;
  }
  if (read_write_operators_.empty()) {
    return;  // Read-only transactions may simply go out of scope.
  }
  DebugAssert(false, "TransactionContext destroyed while active with registered write operators");
  Rollback();
}

bool TransactionContext::Commit() {
  if (phase() == TransactionPhase::kConflicted) {
    Rollback();
    return false;
  }

  auto& wal = *Hyrise::Get().wal_manager;
  auto wal_lsn = uint64_t{0};

  // Commit IDs must become visible in order; serializing commits with a
  // mutex guarantees that (see class comment in the header). The mutex also
  // arbitrates racing Commit() calls on the same context: the phase is
  // re-checked under the lock, so only one caller performs the commit.
  {
    const auto lock = std::lock_guard{manager_.commit_mutex_};
    if (phase() != TransactionPhase::kActive) {
      // Double Commit() (or Commit() after Rollback()): loud in debug, a safe
      // no-op in release reporting the transaction's actual outcome.
      DebugAssert(false, "Commit() on finished transaction");
      return phase() == TransactionPhase::kCommitted;
    }

    // May throw (armed in chaos tests): the phase is still kActive, no record
    // has been touched, so the caller can cleanly roll back and retry.
    FAILPOINT("commit/publish");

    const auto commit_id = manager_.last_commit_id_.load(std::memory_order_acquire) + 1;

    // Commit ordering contract (DESIGN.md §5g) — the steps below must stay in
    // exactly this order:
    //
    //   (1) WAL append. Before anything is applied: a failed append (full
    //       disk, injected fault) leaves the transaction kActive with no
    //       visible effect, so the caller rolls back cleanly and the log
    //       never describes a commit that did not happen.
    //   (2) CommitRecords: begin/end CIDs are stamped, rows become visible
    //       to snapshots >= commit_id.
    //   (3) TableEpochRegistry bumps. BEFORE the commit ID is published: a
    //       transaction that begins after step (4) has snapshot >= commit_id
    //       and sees our rows, so it must also see the new epoch — otherwise
    //       it could validate a cached result that predates this commit.
    //   (4) last_commit_id_ publish + phase kCommitted.
    //   (5) Outside the mutex: sync-durability wait. After the publish, so
    //       concurrent committers batch into one fsync (group commit). A
    //       crash between (4) and the fsync can only lose *in-memory* state —
    //       the recovered process rebuilds from snapshot + durable log, and
    //       both caches and epoch registry entries are rebuilt or only ever
    //       grow, so no cache entry can resurrect for a vanished commit. A
    //       wait failure throws: the commit exists in memory but was not
    //       acknowledged, which is exactly the "unknown outcome" a client of
    //       a crashed database must handle.
    const auto appended = wal.AppendCommit(commit_id, read_write_operators_);
    if (!appended.ok()) {
      throw std::runtime_error{"Commit not logged: " + appended.error()};
    }
    wal_lsn = appended.value();

    for (const auto& read_write_operator : read_write_operators_) {
      read_write_operator->CommitRecords(commit_id);
    }
    {
      const auto written_lock = std::lock_guard{written_tables_mutex_};
      for (const auto& table_name : written_tables_) {
        Hyrise::Get().table_epochs.OnCommittedWrite(table_name, commit_id);
      }
    }
    manager_.last_commit_id_.store(commit_id, std::memory_order_release);
    phase_.store(TransactionPhase::kCommitted, std::memory_order_release);
  }

  if (wal_lsn != 0 && wal.NeedsSynchronousWait()) {
    const auto waited = wal.WaitDurable(wal_lsn);
    if (!waited.ok()) {
      // Step (5) above: committed in memory, durability unknown — the caller
      // must report an error instead of acknowledging.
      throw std::runtime_error{"Commit durability unknown: " + waited.error()};
    }
    wal_wait_ns_ = waited.value();
  }
  return true;
}

void TransactionContext::RegisterWrittenTable(const std::string& table_name) {
  has_pending_writes_.store(true, std::memory_order_release);
  const auto lock = std::lock_guard{written_tables_mutex_};
  if (std::find(written_tables_.begin(), written_tables_.end(), table_name) == written_tables_.end()) {
    written_tables_.push_back(table_name);
  }
}

void TransactionContext::Rollback() {
  // Claim the rollback exactly once: kActive/kConflicted -> kRolledBack.
  // Repeated Rollback() is an idempotent no-op; Rollback() after Commit() is
  // loud in debug and a no-op in release (the commit already published).
  auto expected = TransactionPhase::kActive;
  if (!phase_.compare_exchange_strong(expected, TransactionPhase::kRolledBack, std::memory_order_acq_rel)) {
    if (expected == TransactionPhase::kConflicted) {
      if (!phase_.compare_exchange_strong(expected, TransactionPhase::kRolledBack, std::memory_order_acq_rel)) {
        return;  // Another thread rolled back concurrently.
      }
    } else {
      DebugAssert(expected == TransactionPhase::kRolledBack, "Rollback() after Commit()");
      return;
    }
  }
  for (const auto& read_write_operator : read_write_operators_) {
    read_write_operator->RollbackRecords();
  }
}

}  // namespace hyrise

#ifndef HYRISE_SRC_CACHE_TABLE_EPOCHS_HPP_
#define HYRISE_SRC_CACHE_TABLE_EPOCHS_HPP_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/types.hpp"

namespace hyrise {

/// Invalidation state of one stored table, as seen by the caches.
struct TableEpochState {
  /// Bumped on every committed write (Insert/Delete/Update) to the table and
  /// on every schema change. A cached result that recorded a different data
  /// epoch for a referenced table is stale.
  uint64_t data_epoch{0};
  /// Bumped when the table is created, dropped, or atomically swapped
  /// (StorageManager::ReplaceTable, e.g. after RESTORE FROM). Cached *plans*
  /// only go stale on schema changes — committed data writes leave the plan
  /// structure valid, so the plan cache keys off this epoch alone.
  uint64_t schema_epoch{0};
  /// Commit ID of the latest committed write (or the global commit ID at the
  /// latest schema change). A snapshot can only reuse a cached result if it
  /// is recent enough to see this commit: snapshot_cid >= last_write_cid.
  CommitID last_write_cid{0};
};

/// Registry of per-table invalidation epochs (DESIGN.md §5f), owned by the
/// Hyrise instance (`Hyrise::Get().table_epochs`).
///
/// Writers bump epochs *before* the commit ID is published (inside the
/// commit critical section): a reader whose snapshot includes commit C can
/// therefore never observe the pre-C epoch, which closes the race where a
/// fresh transaction would otherwise validate a stale cache entry. Epochs
/// are keyed by table name. Hyrise::Reset() starts a fresh registry together
/// with fresh commit IDs and empty caches, so no recorded commit ID outlives
/// the commit-ID sequence it belongs to.
class TableEpochRegistry {
 public:
  /// Commit hook: a transaction committed writes to `table_name` with
  /// `commit_id`. Must be called before the commit ID becomes visible.
  void OnCommittedWrite(const std::string& table_name, CommitID commit_id);

  /// DDL/swap hook: the table was created, dropped, or replaced. Bumps both
  /// epochs and records `commit_id` (the current global commit ID) as the
  /// last write, so older snapshots stop matching cached results.
  void OnSchemaChange(const std::string& table_name, CommitID commit_id);

  TableEpochState StateOf(const std::string& table_name) const;

  /// True iff every (table, schema_epoch) pair still matches the registry —
  /// the staleness check for plan-cache entries.
  bool SchemaEpochsCurrent(const std::vector<std::pair<std::string, uint64_t>>& epochs) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, TableEpochState> states_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_CACHE_TABLE_EPOCHS_HPP_

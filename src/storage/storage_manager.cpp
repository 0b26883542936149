#include "storage/storage_manager.hpp"

#include "hyrise.hpp"
#include "persistence/snapshot_manager.hpp"
#include "persistence/wal.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

/// Catalog changes (create/drop/swap) invalidate both cached results and
/// cached plans for the affected name. The current global commit ID is
/// recorded so snapshots that predate the change stop matching.
void BumpSchemaEpoch(const std::string& name) {
  Hyrise::Get().table_epochs.OnSchemaChange(name, Hyrise::Get().transaction_manager.last_commit_id());
}

}  // namespace

void StorageManager::AddTable(const std::string& name, std::shared_ptr<Table> table) {
  {
    const auto lock = std::lock_guard{mutex_};
    Assert(!tables_.contains(name), "Table already exists: " + name);
    Assert(!views_.contains(name), "A view with this name exists: " + name);
    tables_.emplace(name, std::move(table));
  }
  BumpSchemaEpoch(name);
}

void StorageManager::DropTable(const std::string& name) {
  {
    const auto lock = std::lock_guard{mutex_};
    const auto erased = tables_.erase(name);
    Assert(erased == 1, "Table does not exist: " + name);
  }
  BumpSchemaEpoch(name);
}

bool StorageManager::HasTable(const std::string& name) const {
  const auto lock = std::lock_guard{mutex_};
  return tables_.contains(name);
}

std::shared_ptr<Table> StorageManager::GetTable(const std::string& name) const {
  const auto lock = std::lock_guard{mutex_};
  const auto iter = tables_.find(name);
  Assert(iter != tables_.end(), "Table does not exist: " + name);
  return iter->second;
}

std::vector<std::string> StorageManager::TableNames() const {
  const auto lock = std::lock_guard{mutex_};
  auto names = std::vector<std::string>{};
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    names.push_back(name);
  }
  return names;
}

void StorageManager::ReplaceTable(const std::string& name, std::shared_ptr<Table> table) {
  {
    const auto lock = std::lock_guard{mutex_};
    Assert(!views_.contains(name), "A view with this name exists: " + name);
    tables_.insert_or_assign(name, std::move(table));
  }
  BumpSchemaEpoch(name);
}

std::optional<std::string> StorageManager::TableNameOf(const std::shared_ptr<const Table>& table) const {
  const auto lock = std::lock_guard{mutex_};
  for (const auto& [name, candidate] : tables_) {
    if (candidate == table) {
      return name;
    }
  }
  return std::nullopt;
}

Result<size_t> StorageManager::Snapshot(const std::string& directory) const {
  // The snapshot CID is captured BEFORE the catalog: a commit (or logged
  // CREATE/DROP) with CID <= snapshot_cid publishes its effects before
  // publishing its CID, so the acquire-load here guarantees the catalog and
  // row versions read below contain every such commit. Commits racing past
  // the capture have CID > snapshot_cid: their rows fall outside the export's
  // visibility horizon and their log records outside the truncation below —
  // recovery replays them from the log.
  const auto snapshot_cid = Hyrise::Get().transaction_manager.last_commit_id();
  auto tables = std::vector<std::pair<std::string, std::shared_ptr<const Table>>>{};
  {
    const auto lock = std::lock_guard{mutex_};
    tables.reserve(tables_.size());
    for (const auto& [name, table] : tables_) {
      tables.emplace_back(name, table);
    }
  }
  const auto written = persistence::WriteSnapshot(tables, directory, snapshot_cid);
  if (written.ok()) {
    // The snapshot is the new checkpoint: log segments fully covered by it
    // are dead weight and can go (SNAPSHOT TO / CHECKPOINT truncation).
    Hyrise::Get().wal_manager->TruncateThrough(snapshot_cid);
  }
  return written;
}

Result<size_t> StorageManager::Restore(const std::string& directory) {
  auto loaded = persistence::ReadSnapshot(directory);
  if (!loaded.ok()) {
    return Result<size_t>::Error(loaded.error());
  }
  // All imports succeeded — only now touch the catalog.
  for (auto& [name, table] : loaded.value()) {
    ReplaceTable(name, table);
  }
  return loaded.value().size();
}

void StorageManager::AddView(const std::string& name, std::shared_ptr<LqpView> view) {
  const auto lock = std::lock_guard{mutex_};
  Assert(!views_.contains(name) && !tables_.contains(name), "Name already in use: " + name);
  views_.emplace(name, std::move(view));
}

void StorageManager::DropView(const std::string& name) {
  const auto lock = std::lock_guard{mutex_};
  const auto erased = views_.erase(name);
  Assert(erased == 1, "View does not exist: " + name);
}

bool StorageManager::HasView(const std::string& name) const {
  const auto lock = std::lock_guard{mutex_};
  return views_.contains(name);
}

std::shared_ptr<LqpView> StorageManager::GetView(const std::string& name) const {
  const auto lock = std::lock_guard{mutex_};
  const auto iter = views_.find(name);
  Assert(iter != views_.end(), "View does not exist: " + name);
  return iter->second;
}

}  // namespace hyrise

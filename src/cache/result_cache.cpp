#include "cache/result_cache.hpp"

#include <limits>

#include "concurrency/transaction_context.hpp"
#include "hyrise.hpp"
#include "storage/storage_manager.hpp"
#include "storage/table.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise {

std::shared_ptr<const Table> ResultCache::Probe(const PlanFingerprint& fingerprint,
                                                const std::shared_ptr<TransactionContext>& context,
                                                int64_t* saved_ns, uint64_t* saved_bytes) {
  const auto lock = std::lock_guard{mutex_};
  ++stats_.probes;
  const auto iter = entries_.find(fingerprint.hash);
  if (iter == entries_.end() || iter->second.canonical != fingerprint.canonical) {
    return nullptr;
  }
  auto& entry = iter->second;
  if (!IsValid(entry, context)) {
    ++stats_.invalidated_on_probe;
    current_bytes_ -= entry.bytes;
    stats_.current_bytes = current_bytes_;
    entries_.erase(iter);
    return nullptr;
  }
  ++stats_.hits;
  entry.frequency += 1.0;
  entry.priority = inflation_ + entry.frequency * static_cast<double>(entry.rebuild_ns) /
                                    static_cast<double>(std::max(entry.bytes, size_t{1}));
  stats_.saved_ns += entry.rebuild_ns;
  stats_.saved_bytes += entry.bytes;
  if (saved_ns) {
    *saved_ns = entry.rebuild_ns;
  }
  if (saved_bytes) {
    *saved_bytes = entry.bytes;
  }
  return entry.table;
}

bool ResultCache::IsValid(const Entry& entry, const std::shared_ptr<TransactionContext>& context) const {
  // A transaction with pending writes must see its own uncommitted rows; the
  // cached result predates them (or was built by someone else entirely).
  if (context && context->has_pending_writes()) {
    return false;
  }
  auto& registry = Hyrise::Get().table_epochs;
  auto& storage_manager = Hyrise::Get().storage_manager;
  for (const auto& dependency : entry.dependencies) {
    const auto current = registry.StateOf(dependency.table_name);
    if (current.data_epoch != dependency.data_epoch) {
      return false;
    }
    if (entry.leaves_validated) {
      // Epochs only say "nothing committed since admission"; the snapshot
      // check says "and this reader is new enough to see everything the
      // entry saw". Without a context there is no snapshot to compare.
      if (!context || context->snapshot_commit_id() < current.last_write_cid) {
        return false;
      }
    }
    if (dependency.physical_guard) {
      // Unvalidated scans observe uncommitted physical appends that no epoch
      // records — pin the raw shape of the table instead (best effort for
      // the MVCC-off regime).
      if (!storage_manager.HasTable(dependency.table_name)) {
        return false;
      }
      const auto table = storage_manager.GetTable(dependency.table_name);
      if (table->row_count() != dependency.row_count ||
          static_cast<uint32_t>(table->chunk_count()) != dependency.chunk_count) {
        return false;
      }
    }
  }
  return true;
}

void ResultCache::Admit(const PlanFingerprint& fingerprint, const std::shared_ptr<const Table>& table,
                        int64_t rebuild_ns, const std::shared_ptr<TransactionContext>& context) {
  if (!fingerprint.cacheable || !table || fingerprint.referenced_tables.empty()) {
    return;
  }
  if (context && context->has_pending_writes()) {
    // The result may contain (or omit) this transaction's own uncommitted
    // rows; neither state is reusable by anyone else.
    return;
  }

  auto& registry = Hyrise::Get().table_epochs;
  auto& storage_manager = Hyrise::Get().storage_manager;
  auto dependencies = std::vector<TableDependency>{};
  dependencies.reserve(fingerprint.referenced_tables.size());
  for (const auto& table_name : fingerprint.referenced_tables) {
    const auto state = registry.StateOf(table_name);
    if (context && state.last_write_cid > context->snapshot_commit_id()) {
      // A write committed after this result's snapshot: the epochs are
      // current but the result is already stale. Admitting would serve old
      // data to new readers.
      return;
    }
    auto dependency = TableDependency{table_name, state.data_epoch, state.last_write_cid};
    if (!fingerprint.leaves_validated) {
      if (!storage_manager.HasTable(table_name)) {
        return;
      }
      const auto stored = storage_manager.GetTable(table_name);
      dependency.row_count = stored->row_count();
      dependency.chunk_count = static_cast<uint32_t>(stored->chunk_count());
      dependency.physical_guard = true;
    }
    dependencies.push_back(std::move(dependency));
  }

  const auto bytes = table->MemoryUsage();

  const auto lock = std::lock_guard{mutex_};
  if (rebuild_ns < config_.min_rebuild_ns ||
      static_cast<double>(bytes) > config_.max_entry_fraction * static_cast<double>(config_.byte_budget)) {
    ++stats_.rejections;
    return;
  }
  auto& entry = entries_[fingerprint.hash];
  if (entry.table) {
    // Replacing an existing (possibly stale, possibly colliding) entry.
    current_bytes_ -= entry.bytes;
  }
  entry.canonical = fingerprint.canonical;
  entry.table = table;
  entry.bytes = bytes;
  entry.rebuild_ns = rebuild_ns;
  entry.frequency = std::max(entry.frequency, 1.0);
  entry.priority = inflation_ + entry.frequency * static_cast<double>(rebuild_ns) /
                                    static_cast<double>(std::max(bytes, size_t{1}));
  entry.dependencies = std::move(dependencies);
  entry.leaves_validated = fingerprint.leaves_validated;
  current_bytes_ += bytes;
  ++stats_.admissions;
  EvictUntilUnder(config_.byte_budget);
  stats_.current_bytes = current_bytes_;
}

void ResultCache::EvictUntilUnder(size_t budget) {
  while (current_bytes_ > budget && !entries_.empty()) {
    FAILPOINT("cache/evict");
    auto victim = entries_.begin();
    for (auto iter = entries_.begin(); iter != entries_.end(); ++iter) {
      if (iter->second.priority < victim->second.priority) {
        victim = iter;
      }
    }
    inflation_ = victim->second.priority;
    current_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

void ResultCache::Clear() {
  const auto lock = std::lock_guard{mutex_};
  entries_.clear();
  current_bytes_ = 0;
  inflation_ = 0.0;
  stats_.current_bytes = 0;
}

ResultCache::Stats ResultCache::stats() const {
  const auto lock = std::lock_guard{mutex_};
  return stats_;
}

size_t ResultCache::size() const {
  const auto lock = std::lock_guard{mutex_};
  return entries_.size();
}

}  // namespace hyrise

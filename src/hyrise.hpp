#ifndef HYRISE_SRC_HYRISE_HPP_
#define HYRISE_SRC_HYRISE_HPP_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "concurrency/transaction_context.hpp"
#include "storage/storage_manager.hpp"

namespace hyrise {

class AbstractScheduler;
class PluginManager;
template <typename Key, typename Value>
class GdfsCache;
class AbstractOperator;
class AbstractLqpNode;
class ResultCache;

namespace persistence {
class WalManager;
}

/// A plan-cache entry: the translated PQP plus the schema epochs of every
/// table it references, recorded at insertion. The SQL text key says nothing
/// about whether a referenced table has since been dropped, recreated, or
/// swapped (RESTORE FROM) — the epochs do, and a mismatch on lookup means
/// the entry is stale and must be re-planned (cache/table_epochs.hpp).
struct CachedPlan {
  std::shared_ptr<AbstractOperator> pqp;
  std::vector<std::pair<std::string, uint64_t>> table_schema_epochs;
};

using PqpCache = GdfsCache<std::string, CachedPlan>;
using LqpCache = GdfsCache<std::string, std::shared_ptr<AbstractLqpNode>>;

/// Process-wide singleton wiring the DBMS components together (storage
/// manager, transaction manager, scheduler, plugin manager, plan caches).
/// Reset() restores a pristine instance — used between tests and benchmark
/// configurations, reflecting the paper's goal of selectively enabling or
/// disabling components (§2).
class Hyrise {
 public:
  static Hyrise& Get();

  /// Drops all tables, caches, plugins, and replaces the scheduler with the
  /// immediate-execution one.
  static void Reset();

  Hyrise(const Hyrise&) = delete;
  Hyrise& operator=(const Hyrise&) = delete;
  ~Hyrise();

  /// Never null; defaults to the ImmediateExecutionScheduler ("scheduler
  /// turned off").
  const std::shared_ptr<AbstractScheduler>& scheduler() const {
    return scheduler_;
  }

  /// Installs a scheduler (finishing the previous one first).
  void SetScheduler(std::shared_ptr<AbstractScheduler> scheduler);

  StorageManager storage_manager;
  TransactionManager transaction_manager;
  std::unique_ptr<PluginManager> plugin_manager;

  /// Write-ahead redo log (DESIGN.md §5g). Never null; disabled until
  /// WalManager::Enable is called (normally by Server::Start after replaying
  /// the log left by the previous incarnation).
  std::unique_ptr<persistence::WalManager> wal_manager;

  /// Query plan caches (paper §2.6). Null = caching disabled (the default for
  /// tests; the benchmark runner enables them).
  std::shared_ptr<PqpCache> default_pqp_cache;
  std::shared_ptr<LqpCache> default_lqp_cache;

  /// Materialized-intermediate cache (DESIGN.md §5f). Null = reuse disabled
  /// (the default); SqlPipeline threads it through the operator tree when
  /// set.
  std::shared_ptr<ResultCache> default_result_cache;

 private:
  Hyrise();

  std::shared_ptr<AbstractScheduler> scheduler_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_HYRISE_HPP_

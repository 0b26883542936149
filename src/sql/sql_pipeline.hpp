#ifndef HYRISE_SRC_SQL_SQL_PIPELINE_HPP_
#define HYRISE_SRC_SQL_SQL_PIPELINE_HPP_

#include <memory>
#include <string>
#include <vector>

#include "hyrise.hpp"
#include "logical_query_plan/abstract_lqp_node.hpp"
#include "scheduler/cancellation_token.hpp"
#include "types/all_type_variant.hpp"
#include "types/types.hpp"
#include "utils/gdfs_cache.hpp"

namespace hyrise {

class AbstractOperator;
class Optimizer;
class ResultCache;
class Table;
class TransactionContext;

namespace sql {
struct Statement;
}  // namespace sql

/// How long each pipeline stage took (paper §2.6: "all intermediary artifacts
/// can be inspected"; §2.10: benchmark results carry execution metadata).
struct SqlPipelineMetrics {
  int64_t parse_ns{0};
  int64_t translate_ns{0};
  int64_t optimize_ns{0};
  int64_t lqp_translate_ns{0};
  int64_t execute_ns{0};
  bool pqp_cache_hit{false};
  /// How many statement attempts were retried after a write-write conflict or
  /// transient injected fault (auto-commit statements only).
  uint32_t conflict_retries{0};
  /// Result-cache reuse (DESIGN.md §5f): operators that probed the cache,
  /// operators served from it, and the materialized bytes / rebuild time a
  /// fresh execution would have spent.
  uint64_t result_cache_probes{0};
  uint64_t result_cache_hits{0};
  uint64_t result_cache_bytes_saved{0};
  int64_t result_cache_saved_ns{0};
  /// Time commits in this pipeline spent blocked on the WAL group-commit
  /// flusher (durability=sync only; 0 otherwise). DESIGN.md §5g.
  int64_t wal_wait_ns{0};
};

enum class SqlPipelineStatus {
  kSuccess,
  kFailure,     // Parse / translation / semantic / runtime error; see error_message().
  kRolledBack,  // Transaction conflict; the transaction was rolled back (retries exhausted).
  kCancelled,   // Cooperatively cancelled (statement timeout / shutdown).
};

/// The main entry point to everything related to query execution (paper
/// §2.6): takes an SQL string, returns result tables. Every stage —
/// optimizer, MVCC, scheduler use, plan cache — can be toggled, mirroring the
/// paper's design goal of selectively disabling components (§2).
class SqlPipeline {
 public:
  class Builder;

  SqlPipelineStatus Execute();

  /// Result table of the last executed statement (nullptr for DML/DDL).
  const std::shared_ptr<const Table>& result_table() const;

  const std::vector<std::shared_ptr<const Table>>& result_tables() const {
    return result_tables_;
  }

  const std::string& error_message() const {
    return error_message_;
  }

  const SqlPipelineMetrics& metrics() const {
    return metrics_;
  }

  /// The unoptimized and optimized plans of the last statement, for
  /// inspection/visualization.
  const LqpNodePtr& unoptimized_lqp() const {
    return unoptimized_lqp_;
  }

  const LqpNodePtr& optimized_lqp() const {
    return optimized_lqp_;
  }

  const std::shared_ptr<AbstractOperator>& pqp() const {
    return pqp_;
  }

  /// The transaction the pipeline ran in (external or auto-commit).
  const std::shared_ptr<TransactionContext>& transaction_context() const {
    return transaction_context_;
  }

 private:
  friend class Builder;

  SqlPipeline(std::string sql, std::shared_ptr<Optimizer> optimizer, UseMvcc use_mvcc, bool use_scheduler,
              std::shared_ptr<TransactionContext> transaction_context, std::shared_ptr<PqpCache> pqp_cache,
              std::shared_ptr<ResultCache> result_cache, std::vector<AllTypeVariant> parameters,
              CancellationToken cancellation_token, uint32_t max_conflict_retries);

  /// Outcome of one attempt at one statement.
  enum class StatementOutcome {
    kSuccess,
    kTransient,  // Write-write conflict or injected transient fault — retryable.
    kCancelled,
    kError,
  };

  StatementOutcome ExecuteStatementOnce(const sql::Statement& statement, bool single_statement, bool auto_commit);

  std::string sql_;
  std::shared_ptr<Optimizer> optimizer_;
  UseMvcc use_mvcc_;
  bool use_scheduler_;
  std::shared_ptr<TransactionContext> transaction_context_;
  std::shared_ptr<PqpCache> pqp_cache_;
  std::shared_ptr<ResultCache> result_cache_;
  std::vector<AllTypeVariant> parameters_;
  CancellationToken cancellation_token_;
  uint32_t max_conflict_retries_;

  std::vector<std::shared_ptr<const Table>> result_tables_;
  std::string error_message_;
  SqlPipelineMetrics metrics_;
  LqpNodePtr unoptimized_lqp_;
  LqpNodePtr optimized_lqp_;
  std::shared_ptr<AbstractOperator> pqp_;
};

/// Fluent construction: SqlPipeline::Builder{"SELECT 1"}.WithMvcc(...).Build().
class SqlPipeline::Builder {
 public:
  explicit Builder(std::string sql) : sql_(std::move(sql)) {}

  /// Disables the optimizer: "without an optimizer, queries get executed
  /// close to how they are defined in SQL" (paper §2).
  Builder& DisableOptimizer() {
    optimizer_ = nullptr;
    use_default_optimizer_ = false;
    return *this;
  }

  /// Installs a custom rule pipeline (e.g. a reduced one for baseline
  /// engine configurations).
  Builder& WithOptimizer(std::shared_ptr<Optimizer> optimizer) {
    optimizer_ = std::move(optimizer);
    use_default_optimizer_ = false;
    return *this;
  }

  Builder& WithMvcc(UseMvcc use_mvcc) {
    use_mvcc_ = use_mvcc;
    return *this;
  }

  /// Executes the PQP through the current scheduler as an operator-task DAG
  /// instead of inline.
  Builder& UseScheduler(bool use_scheduler) {
    use_scheduler_ = use_scheduler;
    return *this;
  }

  Builder& WithTransactionContext(std::shared_ptr<TransactionContext> context) {
    transaction_context_ = std::move(context);
    return *this;
  }

  Builder& WithPqpCache(std::shared_ptr<PqpCache> cache) {
    pqp_cache_ = std::move(cache);
    use_default_pqp_cache_ = false;
    return *this;
  }

  /// Threads a materialized-intermediate cache through the executed plans
  /// (nullptr disables reuse). Without this call, Hyrise::default_result_cache
  /// applies.
  Builder& WithResultCache(std::shared_ptr<ResultCache> cache) {
    result_cache_ = std::move(cache);
    use_default_result_cache_ = false;
    return *this;
  }

  /// Binds values for '?' placeholders by ordinal — the prepared-statement
  /// path of paper §2.6 ("for Prepared Statements, we store placeholders
  /// instead of actual values ... replaced before the execution").
  Builder& WithParameters(std::vector<AllTypeVariant> parameters) {
    parameters_ = std::move(parameters);
    return *this;
  }

  /// Installs a cooperative cancellation token, checked between statements,
  /// before each operator, and at chunk boundaries inside operators. A
  /// cancelled pipeline rolls back and reports kCancelled.
  Builder& WithCancellationToken(CancellationToken token) {
    cancellation_token_ = std::move(token);
    return *this;
  }

  /// How often an auto-commit statement that hits a write-write conflict (or
  /// an injected transient fault) is retried with exponential backoff before
  /// kRolledBack is reported. 0 disables the retry. Statements inside an
  /// explicit BEGIN are never retried — the client owns that transaction.
  Builder& WithMaxConflictRetries(uint32_t retries) {
    max_conflict_retries_ = retries;
    return *this;
  }

  SqlPipeline Build();

 private:
  std::string sql_;
  std::shared_ptr<Optimizer> optimizer_;
  bool use_default_optimizer_{true};
  UseMvcc use_mvcc_{UseMvcc::kYes};
  bool use_scheduler_{false};
  std::shared_ptr<TransactionContext> transaction_context_;
  std::shared_ptr<PqpCache> pqp_cache_;
  bool use_default_pqp_cache_{true};
  std::shared_ptr<ResultCache> result_cache_;
  bool use_default_result_cache_{true};
  std::vector<AllTypeVariant> parameters_;
  CancellationToken cancellation_token_;
  uint32_t max_conflict_retries_{3};
};

/// Convenience for tests and examples: executes `sql` and returns the last
/// result table (Fails on error).
std::shared_ptr<const Table> ExecuteSql(const std::string& sql, UseMvcc use_mvcc = UseMvcc::kYes);

}  // namespace hyrise

#endif  // HYRISE_SRC_SQL_SQL_PIPELINE_HPP_

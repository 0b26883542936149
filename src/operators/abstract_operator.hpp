#ifndef HYRISE_SRC_OPERATORS_ABSTRACT_OPERATOR_HPP_
#define HYRISE_SRC_OPERATORS_ABSTRACT_OPERATOR_HPP_

#include <memory>
#include <string>
#include <unordered_map>

#include "scheduler/cancellation_token.hpp"
#include "types/all_type_variant.hpp"
#include "types/types.hpp"

namespace hyrise {

class Table;
class TransactionContext;
class ResultCache;
struct PlanFingerprint;

enum class OperatorType {
  kGetTable,
  kTableWrapper,
  kTableScan,
  kIndexScan,
  kProjection,
  kAlias,
  kAggregate,
  kSort,
  kLimit,
  kJoinHash,
  kJoinSortMerge,
  kJoinNestedLoop,
  kProduct,
  kUnionAll,
  kValidate,
  kInsert,
  kDelete,
  kUpdate,
  kCreateTable,
  kDropTable,
  kCreateView,
  kDropView,
  kExportTable,
  kImportTable,
  kSnapshot,
  kRestore,
  kCheckpoint,
};

/// Basic runtime metrics, attached to every executed operator. Benchmark
/// output includes these for reproducibility (paper §2.10).
struct OperatorPerformanceData {
  int64_t walltime_ns{0};
  uint64_t output_row_count{0};
  bool executed{false};
  /// Result-cache interaction (DESIGN.md §5f): whether this operator probed
  /// the cache, whether its output came from it, and what a hit saved.
  bool result_cache_probed{false};
  bool from_result_cache{false};
  int64_t result_cache_saved_ns{0};
  uint64_t result_cache_saved_bytes{0};
};

/// A physical operator of the PQP (paper §2.1): concrete implementation of a
/// logical operation, executed once, caching its output table. Inputs form a
/// DAG executed either inline or via OperatorTasks.
class AbstractOperator : public std::enable_shared_from_this<AbstractOperator> {
 public:
  explicit AbstractOperator(OperatorType init_type, std::shared_ptr<AbstractOperator> init_left = nullptr,
                            std::shared_ptr<AbstractOperator> init_right = nullptr)
      : type_(init_type), left_input_(std::move(init_left)), right_input_(std::move(init_right)) {}

  AbstractOperator(const AbstractOperator&) = delete;
  AbstractOperator& operator=(const AbstractOperator&) = delete;
  virtual ~AbstractOperator() = default;

  OperatorType type() const {
    return type_;
  }

  virtual const std::string& name() const = 0;

  virtual std::string Description() const {
    return name();
  }

  /// Executes the operator (and, for convenience outside the task graph, any
  /// not-yet-executed inputs). Idempotent: repeated calls are errors.
  void Execute();

  bool executed() const {
    return performance_data.executed;
  }

  std::shared_ptr<const Table> get_output() const;

  const std::shared_ptr<AbstractOperator>& left_input() const {
    return left_input_;
  }

  const std::shared_ptr<AbstractOperator>& right_input() const {
    return right_input_;
  }

  /// Installs the transaction context on this operator and all inputs.
  void SetTransactionContextRecursively(const std::shared_ptr<TransactionContext>& context);

  std::shared_ptr<TransactionContext> transaction_context() const {
    return transaction_context_.lock();
  }

  /// Threads the result cache through this plan. Execute() then probes it
  /// top-down before running a subtree and offers eligible outputs for
  /// admission afterwards (DESIGN.md §5f).
  void SetResultCacheRecursively(const std::shared_ptr<ResultCache>& cache);

  /// Top-down pre-probe for the scheduler path: marks every cache-satisfied
  /// subtree root as executed (output installed) without touching its inputs,
  /// so MakeTasksFromOperator skips the whole subtree. Without this, the
  /// bottom-up task DAG would execute leaves whose parent is already cached.
  void ProbeResultCacheRecursively();

  const std::shared_ptr<const PlanFingerprint>& plan_fingerprint_memo() const {
    return plan_fingerprint_memo_;
  }

  void set_plan_fingerprint_memo(std::shared_ptr<const PlanFingerprint> fingerprint) const {
    plan_fingerprint_memo_ = std::move(fingerprint);
  }

  /// Installs a cooperative cancellation token on this operator and all
  /// inputs. Execute() checks it before running, and chunk-parallel operators
  /// re-check it at every chunk boundary, so a timed-out or abandoned query
  /// aborts with QueryCancelled instead of running to completion.
  void SetCancellationTokenRecursively(const CancellationToken& token);

  const CancellationToken& cancellation_token() const {
    return cancellation_token_;
  }

  /// Binds placeholder values (prepared statements, correlated subqueries)
  /// into this plan, recursively.
  void SetParameters(const std::unordered_map<ParameterID, AllTypeVariant>& parameters);

  /// Copies the not-yet-executed plan (for plan caching / repeated execution
  /// of prepared statements). Diamond-shaped PQPs stay diamonds.
  std::shared_ptr<AbstractOperator> DeepCopy() const;

  using DeepCopyMap = std::unordered_map<const AbstractOperator*, std::shared_ptr<AbstractOperator>>;

  std::shared_ptr<AbstractOperator> DeepCopy(DeepCopyMap& map) const;

  OperatorPerformanceData performance_data;

 protected:
  virtual std::shared_ptr<const Table> OnExecute(const std::shared_ptr<TransactionContext>& context) = 0;

  virtual void OnSetParameters(const std::unordered_map<ParameterID, AllTypeVariant>& parameters) {
    (void)parameters;
  }

  virtual void OnSetTransactionContext(const std::shared_ptr<TransactionContext>& context) {
    (void)context;
  }

  /// Copies the operator's own configuration onto fresh inputs.
  virtual std::shared_ptr<AbstractOperator> OnDeepCopy(std::shared_ptr<AbstractOperator> left,
                                                       std::shared_ptr<AbstractOperator> right,
                                                       DeepCopyMap& map) const = 0;

  /// Probes the result cache for this subtree's output. On a hit, installs
  /// it and marks the operator executed. Returns true on a hit.
  bool TryServeFromCache();

  /// Total measured walltime of this operator and everything below it — the
  /// rebuild cost a cache hit would save.
  int64_t SubtreeWalltime() const;

  const OperatorType type_;
  std::shared_ptr<AbstractOperator> left_input_;
  std::shared_ptr<AbstractOperator> right_input_;
  std::weak_ptr<TransactionContext> transaction_context_;
  CancellationToken cancellation_token_;
  std::shared_ptr<const Table> output_;
  std::shared_ptr<ResultCache> result_cache_;
  mutable std::shared_ptr<const PlanFingerprint> plan_fingerprint_memo_;
};

/// Base of operators that modify data under MVCC (Insert, Delete, Update).
/// Their effects become visible on Commit and are undone on Rollback
/// (paper §2.8).
class AbstractReadWriteOperator : public AbstractOperator {
 public:
  using AbstractOperator::AbstractOperator;

  /// Finalizes the operator's effects with the given commit ID.
  virtual void CommitRecords(CommitID commit_id) = 0;

  /// Undoes the operator's effects.
  virtual void RollbackRecords() = 0;

  /// True after a write-write conflict; the transaction must roll back.
  bool ExecutionFailed() const {
    return failed_;
  }

 protected:
  void MarkAsFailed() {
    failed_ = true;
  }

 private:
  bool failed_{false};
};

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_ABSTRACT_OPERATOR_HPP_

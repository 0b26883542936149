#include "sql/sql_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <unordered_set>

#include "cache/plan_fingerprint.hpp"
#include "cache/result_cache.hpp"
#include "concurrency/transaction_context.hpp"
#include "hyrise.hpp"
#include "logical_query_plan/lqp_translator.hpp"
#include "operators/abstract_operator.hpp"
#include "optimizer/optimizer.hpp"
#include "scheduler/abstract_scheduler.hpp"
#include "scheduler/operator_task.hpp"
#include "sql/sql_parser.hpp"
#include "sql/sql_translator.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"
#include "utils/failure_injection.hpp"
#include "utils/timer.hpp"

namespace hyrise {

namespace {

/// Exponential backoff with +-50% jitter before a conflict retry: 1ms * 2^n,
/// capped at 32ms. The jitter de-synchronizes contending auto-commit writers
/// so they do not collide again on the very same rows in lock-step.
void BackoffBeforeRetry(uint32_t attempt) {
  const auto base_ms = int64_t{1} << std::min(attempt, uint32_t{5});
  thread_local auto rng = std::mt19937{std::random_device{}()};
  auto jitter = std::uniform_real_distribution<double>{0.5, 1.5};
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>{static_cast<double>(base_ms) * jitter(rng)});
}

/// The schema epochs of every table a plan references, recorded when the
/// plan enters the cache and compared on lookup (satellite of DESIGN.md §5f:
/// a dropped/recreated/swapped table silently invalidates the SQL-text key).
std::vector<std::pair<std::string, uint64_t>> RecordSchemaEpochs(const AbstractOperator& pqp) {
  auto epochs = std::vector<std::pair<std::string, uint64_t>>{};
  for (const auto& table_name : CollectReferencedTableNames(pqp)) {
    epochs.emplace_back(table_name, Hyrise::Get().table_epochs.StateOf(table_name).schema_epoch);
  }
  return epochs;
}

void AccumulateReuseMetrics(const AbstractOperator& op, std::unordered_set<const AbstractOperator*>& seen,
                            SqlPipelineMetrics& metrics) {
  if (!seen.insert(&op).second) {
    return;
  }
  if (op.performance_data.result_cache_probed) {
    ++metrics.result_cache_probes;
  }
  if (op.performance_data.from_result_cache) {
    ++metrics.result_cache_hits;
    metrics.result_cache_bytes_saved += op.performance_data.result_cache_saved_bytes;
    metrics.result_cache_saved_ns += op.performance_data.result_cache_saved_ns;
  }
  if (op.left_input()) {
    AccumulateReuseMetrics(*op.left_input(), seen, metrics);
  }
  if (op.right_input()) {
    AccumulateReuseMetrics(*op.right_input(), seen, metrics);
  }
}

}  // namespace

SqlPipeline::SqlPipeline(std::string sql, std::shared_ptr<Optimizer> optimizer, UseMvcc use_mvcc,
                         bool use_scheduler, std::shared_ptr<TransactionContext> transaction_context,
                         std::shared_ptr<PqpCache> pqp_cache, std::shared_ptr<ResultCache> result_cache,
                         std::vector<AllTypeVariant> parameters, CancellationToken cancellation_token,
                         uint32_t max_conflict_retries)
    : sql_(std::move(sql)),
      optimizer_(std::move(optimizer)),
      use_mvcc_(use_mvcc),
      use_scheduler_(use_scheduler),
      transaction_context_(std::move(transaction_context)),
      pqp_cache_(std::move(pqp_cache)),
      result_cache_(std::move(result_cache)),
      parameters_(std::move(parameters)),
      cancellation_token_(std::move(cancellation_token)),
      max_conflict_retries_(max_conflict_retries) {}

const std::shared_ptr<const Table>& SqlPipeline::result_table() const {
  static const auto kNoTable = std::shared_ptr<const Table>{};
  return result_tables_.empty() ? kNoTable : result_tables_.back();
}

SqlPipelineStatus SqlPipeline::Execute() {
  auto timer = Timer{};
  auto parsed = sql::ParseSql(sql_);
  metrics_.parse_ns += timer.Lap();
  if (!parsed.ok()) {
    error_message_ = parsed.error();
    return SqlPipelineStatus::kFailure;
  }
  const auto& statements = parsed.value();

  // Rolls back whatever transaction the pipeline currently owns; used on the
  // cancellation and hard-error paths so no locks or partial effects leak.
  const auto abort_open_transaction = [&] {
    if (transaction_context_ && transaction_context_->IsActive()) {
      transaction_context_->Rollback();
    }
    transaction_context_ = nullptr;
  };

  // Explicit transaction control: BEGIN opens a context that statements in
  // this pipeline (and, via transaction_context(), the session) share.
  auto auto_commit = transaction_context_ == nullptr;

  for (const auto& statement : statements) {
    // Cooperative cancellation between statements (paper §2.9's task model
    // has no preemption; cancellation is polled at safe points).
    if (cancellation_token_.IsCancelled()) {
      abort_open_transaction();
      error_message_ = "Query cancelled";
      return SqlPipelineStatus::kCancelled;
    }

    if (statement->kind == sql::StatementKind::kBegin) {
      transaction_context_ = Hyrise::Get().transaction_manager.NewTransactionContext();
      auto_commit = false;
      result_tables_.push_back(nullptr);
      continue;
    }
    if (statement->kind == sql::StatementKind::kCommit || statement->kind == sql::StatementKind::kRollback) {
      if (transaction_context_ && transaction_context_->IsActive()) {
        if (statement->kind == sql::StatementKind::kCommit) {
          // An explicit COMMIT is never retried — the client owns the
          // transaction and must re-run it after a conflict or fault.
          auto committed = false;
          try {
            committed = transaction_context_->Commit();
          } catch (const InjectedFault&) {
            transaction_context_->Rollback();
          } catch (const std::exception& exception) {
            // WAL append failure (still active → roll back cleanly) or a
            // durability wait that could not confirm the fsync (already
            // committed in memory → nothing to roll back, but the client must
            // not treat the commit as durable). Never retried.
            if (transaction_context_->IsActive()) {
              transaction_context_->Rollback();
            }
            transaction_context_ = nullptr;
            error_message_ = exception.what();
            return SqlPipelineStatus::kFailure;
          }
          if (!committed) {
            transaction_context_ = nullptr;
            error_message_ = "Transaction conflict: rolled back";
            return SqlPipelineStatus::kRolledBack;
          }
          metrics_.wal_wait_ns += transaction_context_->wal_wait_ns();
        } else {
          transaction_context_->Rollback();
        }
      }
      transaction_context_ = nullptr;
      auto_commit = true;
      result_tables_.push_back(nullptr);
      continue;
    }

    // Bounded retry for auto-commit statements only: a write-write conflict
    // (or injected transient fault) dooms just this statement's private
    // transaction, so re-running it is transparent to the client. Inside an
    // explicit BEGIN the client owns the transaction and must retry itself.
    const auto max_attempts = auto_commit ? max_conflict_retries_ + 1 : uint32_t{1};
    for (auto attempt = uint32_t{0};; ++attempt) {
      const auto outcome = ExecuteStatementOnce(*statement, statements.size() == 1, auto_commit);
      if (outcome == StatementOutcome::kSuccess) {
        break;
      }
      if (outcome == StatementOutcome::kCancelled) {
        return SqlPipelineStatus::kCancelled;
      }
      if (outcome == StatementOutcome::kError) {
        return SqlPipelineStatus::kFailure;
      }
      // kTransient.
      if (attempt + 1 >= max_attempts || cancellation_token_.IsCancelled()) {
        error_message_ = "Transaction conflict: rolled back";
        return SqlPipelineStatus::kRolledBack;
      }
      ++metrics_.conflict_retries;
      BackoffBeforeRetry(attempt);
    }
  }
  return SqlPipelineStatus::kSuccess;
}

SqlPipeline::StatementOutcome SqlPipeline::ExecuteStatementOnce(const sql::Statement& statement,
                                                                bool single_statement, bool auto_commit) {
  auto timer = Timer{};

  // Per-statement transaction when none is open.
  auto statement_context = transaction_context_;
  if (!statement_context && use_mvcc_ == UseMvcc::kYes) {
    statement_context = Hyrise::Get().transaction_manager.NewTransactionContext();
  }

  // Rolls back the statement's transaction and, if it was an explicit one,
  // detaches it from the pipeline: after a fault the transaction is doomed
  // either way.
  const auto abort_statement = [&] {
    if (statement_context && statement_context->phase() != TransactionPhase::kCommitted) {
      statement_context->Rollback();
    }
    if (!auto_commit) {
      transaction_context_ = nullptr;
    }
  };

  auto pqp = std::shared_ptr<AbstractOperator>{};
  metrics_.pqp_cache_hit = false;

  // Plan cache lookup (only sensible for single-statement strings; plans
  // are stored uninstantiated and deep-copied per execution, paper §2.6).
  // The SQL-text key alone cannot notice a referenced table being dropped,
  // recreated, or swapped (RESTORE FROM); the recorded schema epochs can —
  // a mismatch drops the entry and re-plans.
  if (pqp_cache_ && single_statement) {
    if (const auto cached = pqp_cache_->TryGet(sql_)) {
      if (Hyrise::Get().table_epochs.SchemaEpochsCurrent(cached->table_schema_epochs)) {
        pqp = cached->pqp->DeepCopy();
        metrics_.pqp_cache_hit = true;
      } else {
        pqp_cache_->Erase(sql_);
      }
    }
  }

  if (!pqp) {
    // Planning types the statement's expressions: a string combined with a
    // number fails it here already.
    try {
      timer.Lap();
      auto translator = SqlTranslator{use_mvcc_};
      auto lqp_result = translator.Translate(statement);
      metrics_.translate_ns += timer.Lap();
      if (!lqp_result.ok()) {
        error_message_ = lqp_result.error();
        abort_statement();
        return StatementOutcome::kError;
      }
      unoptimized_lqp_ = lqp_result.value();

      auto lqp = unoptimized_lqp_;
      if (optimizer_) {
        // The optimizer consumes the plan; keep the unoptimized one for
        // inspection via a copy.
        unoptimized_lqp_ = lqp->DeepCopy();
        lqp = optimizer_->Optimize(std::move(lqp));
      }
      optimized_lqp_ = lqp;
      metrics_.optimize_ns += timer.Lap();

      auto lqp_translator = LqpTranslator{};
      auto pqp_result = lqp_translator.Translate(lqp);
      metrics_.lqp_translate_ns += timer.Lap();
      if (!pqp_result.ok()) {
        error_message_ = pqp_result.error();
        abort_statement();
        return StatementOutcome::kError;
      }
      pqp = pqp_result.value();
    } catch (const DataTypeMismatch& mismatch) {
      error_message_ = mismatch.what();
      sqlstate_ = "42883";
      abort_statement();
      return StatementOutcome::kError;
    }

    if (pqp_cache_ && single_statement) {
      pqp_cache_->Set(sql_, CachedPlan{pqp->DeepCopy(), RecordSchemaEpochs(*pqp)});
    }
  }

  pqp_ = pqp;
  if (!parameters_.empty()) {
    auto bindings = std::unordered_map<ParameterID, AllTypeVariant>{};
    for (auto ordinal = size_t{0}; ordinal < parameters_.size(); ++ordinal) {
      bindings.emplace(ParameterID{static_cast<uint16_t>(ordinal)}, parameters_[ordinal]);
    }
    pqp->SetParameters(bindings);
  }
  if (statement_context) {
    pqp->SetTransactionContextRecursively(statement_context);
  }
  pqp->SetCancellationTokenRecursively(cancellation_token_);
  if (result_cache_) {
    // After SetParameters: bound values are part of the subtree fingerprints.
    pqp->SetResultCacheRecursively(result_cache_);
  }

  // Execution. Exceptions are contained here: worker-thread exceptions are
  // captured per task and rethrown on this thread by ScheduleAndWaitForTasks,
  // so a failing operator dooms one statement, never the process.
  timer.Lap();
  try {
    if (use_scheduler_) {
      // The task DAG executes bottom-up, which would run every leaf before a
      // mid-plan cache hit could skip it. Probe top-down first: satisfied
      // subtree roots are marked executed and MakeTasksFromOperator prunes
      // everything below them.
      if (result_cache_) {
        pqp->ProbeResultCacheRecursively();
      }
      if (!pqp->executed()) {
        const auto tasks = OperatorTask::MakeTasksFromOperator(pqp);
        Hyrise::Get().scheduler()->ScheduleAndWaitForTasks(tasks);
      }
    } else {
      pqp->Execute();
    }
  } catch (const QueryCancelled& cancelled) {
    metrics_.execute_ns += timer.Lap();
    abort_statement();
    error_message_ = cancelled.what();
    return StatementOutcome::kCancelled;
  } catch (const InjectedFault& fault) {
    metrics_.execute_ns += timer.Lap();
    abort_statement();
    error_message_ = fault.what();
    return StatementOutcome::kTransient;
  } catch (const std::exception& exception) {
    metrics_.execute_ns += timer.Lap();
    abort_statement();
    error_message_ = std::string{"Statement execution failed: "} + exception.what();
    if (dynamic_cast<const DataTypeMismatch*>(&exception) != nullptr) {
      sqlstate_ = "42883";
    }
    return StatementOutcome::kError;
  }
  metrics_.execute_ns += timer.Lap();

  if (result_cache_) {
    auto seen = std::unordered_set<const AbstractOperator*>{};
    AccumulateReuseMetrics(*pqp, seen, metrics_);
  }

  // Transaction outcome.
  if (statement_context && statement_context->phase() == TransactionPhase::kConflicted) {
    abort_statement();
    error_message_ = "Transaction conflict: rolled back";
    return StatementOutcome::kTransient;
  }
  if (statement_context && auto_commit) {
    try {
      if (!statement_context->Commit()) {
        error_message_ = "Transaction conflict: rolled back";
        return StatementOutcome::kTransient;
      }
    } catch (const InjectedFault& fault) {
      // "commit/publish" fires before any record is published, so the
      // transaction is still active and can be fully rolled back.
      statement_context->Rollback();
      error_message_ = fault.what();
      return StatementOutcome::kTransient;
    } catch (const std::exception& exception) {
      // WAL failure. If the commit never made it into the log the context is
      // still active and rolls back cleanly; if only the durability wait
      // failed the commit is already published in memory and must not be
      // rolled back (or retried — the outcome is unknown, not conflicted).
      if (statement_context->IsActive()) {
        statement_context->Rollback();
      }
      error_message_ = exception.what();
      return StatementOutcome::kError;
    }
    metrics_.wal_wait_ns += statement_context->wal_wait_ns();
  }

  result_tables_.push_back(pqp->get_output());
  return StatementOutcome::kSuccess;
}

SqlPipeline SqlPipeline::Builder::Build() {
  auto optimizer = optimizer_;
  if (use_default_optimizer_) {
    optimizer = Optimizer::CreateDefault();
  }
  auto pqp_cache = pqp_cache_;
  if (use_default_pqp_cache_ && !pqp_cache) {
    pqp_cache = Hyrise::Get().default_pqp_cache;
  }
  auto result_cache = result_cache_;
  if (use_default_result_cache_ && !result_cache) {
    result_cache = Hyrise::Get().default_result_cache;
  }
  return SqlPipeline{sql_,
                     std::move(optimizer),
                     use_mvcc_,
                     use_scheduler_,
                     transaction_context_,
                     std::move(pqp_cache),
                     std::move(result_cache),
                     parameters_,
                     cancellation_token_,
                     max_conflict_retries_};
}

std::shared_ptr<const Table> ExecuteSql(const std::string& sql, UseMvcc use_mvcc) {
  auto pipeline = SqlPipeline::Builder{sql}.WithMvcc(use_mvcc).Build();
  const auto status = pipeline.Execute();
  Assert(status == SqlPipelineStatus::kSuccess, "SQL failed: " + pipeline.error_message() + "\n  " + sql);
  return pipeline.result_table();
}

}  // namespace hyrise

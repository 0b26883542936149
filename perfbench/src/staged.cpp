#include "staged.hpp"

#include <unordered_map>
#include <unordered_set>

#include "concurrency/transaction_context.hpp"
#include "hyrise.hpp"
#include "logical_query_plan/lqp_translator.hpp"
#include "operators/abstract_operator.hpp"
#include "optimizer/optimizer.hpp"
#include "scheduler/abstract_task.hpp"
#include "sql/sql_parser.hpp"
#include "sql/sql_translator.hpp"
#include "storage/table.hpp"

namespace perfbench {

namespace {

using hyrise::AbstractOperator;

void ExecuteBottomUp(const std::shared_ptr<AbstractOperator>& op, Tracer* tracer,
                     std::unordered_set<const AbstractOperator*>& visited) {
  if (!visited.insert(op.get()).second || op->executed()) {
    return;
  }
  if (op->left_input()) {
    ExecuteBottomUp(op->left_input(), tracer, visited);
  }
  if (op->right_input()) {
    ExecuteBottomUp(op->right_input(), tracer, visited);
  }
  // Inputs are executed, so Execute() runs this operator only.
  const auto span = ScopedSpan{tracer, tracer ? "operators." + op->name() : std::string{}};
  op->Execute();
}

void CollectRows(const AbstractOperator& op, std::unordered_set<const AbstractOperator*>& visited,
                 std::map<std::string, uint64_t>& rows_out) {
  if (!visited.insert(&op).second) {
    return;
  }
  rows_out[op.name()] += op.performance_data.output_row_count;
  if (op.left_input()) {
    CollectRows(*op.left_input(), visited, rows_out);
  }
  if (op.right_input()) {
    CollectRows(*op.right_input(), visited, rows_out);
  }
}

}  // namespace

StagedResult RunStaged(const std::string& sql, const StagedOptions& options, Tracer* tracer) {
  auto result = StagedResult{};
  auto parsed = [&] {
    const auto span = ScopedSpan{tracer, "sql.parse"};
    return hyrise::sql::ParseSql(sql);
  }();
  if (!parsed.ok()) {
    return StagedResult{false, parsed.error(), {}, {}};
  }

  for (const auto& statement : parsed.value()) {
    using Kind = hyrise::sql::StatementKind;
    if (statement->kind == Kind::kBegin || statement->kind == Kind::kCommit || statement->kind == Kind::kRollback) {
      continue;
    }
    auto lqp = [&] {
      const auto span = ScopedSpan{tracer, "sql.translate"};
      return hyrise::SqlTranslator{options.use_mvcc}.Translate(*statement);
    }();
    if (!lqp.ok()) {
      return StagedResult{false, lqp.error(), {}, {}};
    }
    auto optimized = std::move(lqp).value();
    if (options.optimizer) {
      const auto span = ScopedSpan{tracer, "optimizer.optimize"};
      optimized = options.optimizer->Optimize(std::move(optimized));
    }
    auto pqp = [&] {
      const auto span = ScopedSpan{tracer, "lqp.translate"};
      return hyrise::LqpTranslator{}.Translate(optimized);
    }();
    if (!pqp.ok()) {
      return StagedResult{false, pqp.error(), {}, {}};
    }
    if (!options.execute) {
      continue;
    }

    const auto& plan = pqp.value();
    if (!options.parameters.empty()) {
      auto bindings = std::unordered_map<hyrise::ParameterID, hyrise::AllTypeVariant>{};
      for (auto ordinal = size_t{0}; ordinal < options.parameters.size(); ++ordinal) {
        bindings.emplace(hyrise::ParameterID{static_cast<uint16_t>(ordinal)}, options.parameters[ordinal]);
      }
      plan->SetParameters(bindings);
    }
    auto context = std::shared_ptr<hyrise::TransactionContext>{};
    if (options.use_mvcc == hyrise::UseMvcc::kYes) {
      context = hyrise::Hyrise::Get().transaction_manager.NewTransactionContext();
      plan->SetTransactionContextRecursively(context);
    }
    try {
      const auto span = ScopedSpan{tracer, "operators.execute"};
      auto visited = std::unordered_set<const AbstractOperator*>{};
      ExecuteBottomUp(plan, tracer, visited);
    } catch (const std::exception& exception) {
      if (context && context->IsActive()) {
        context->Rollback();
      }
      return StagedResult{false, exception.what(), {}, {}};
    }
    if (context && !context->Commit()) {
      return StagedResult{false, "commit failed", {}, {}};
    }
    auto visited = std::unordered_set<const AbstractOperator*>{};
    CollectRows(*plan, visited, result.rows_out);
    if (plan->get_output()) {
      result.tables.push_back(plan->get_output());
    }
  }
  return result;
}

double MeanDispatchUs(size_t samples) {
  auto total_ns = int64_t{0};
  for (auto sample = size_t{0}; sample < samples; ++sample) {
    const auto task = std::make_shared<hyrise::JobTask>([] {});
    const auto start = NowNs();
    task->Schedule();
    task->Join();
    total_ns += NowNs() - start;
  }
  return static_cast<double>(total_ns) / static_cast<double>(samples) / 1e3;
}

}  // namespace perfbench

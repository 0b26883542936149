#ifndef PERFBENCH_SRC_STAGED_HPP_
#define PERFBENCH_SRC_STAGED_HPP_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "types/all_type_variant.hpp"
#include "types/types.hpp"

namespace hyrise {
class Optimizer;
class Table;
}  // namespace hyrise

namespace perfbench {

/// How to run one SQL string stage by stage.
struct StagedOptions {
  hyrise::UseMvcc use_mvcc{hyrise::UseMvcc::kNo};
  std::shared_ptr<hyrise::Optimizer> optimizer;
  /// False: parse, translate, optimize and LQP-translate only.
  bool execute{true};
  std::vector<hyrise::AllTypeVariant> parameters;
};

struct StagedResult {
  bool ok{true};
  std::string error;
  /// One per executed statement that produced a table.
  std::vector<std::shared_ptr<const hyrise::Table>> tables;
  /// Output rows per operator name, summed over the executed plans.
  std::map<std::string, uint64_t> rows_out;
};

/// Runs `sql` through the engine's public stages, one call each, with a span
/// around every call: sql.parse (sql::ParseSql), sql.translate
/// (SqlTranslator::Translate), optimizer.optimize (Optimizer::Optimize),
/// lqp.translate (LqpTranslator::Translate) and operators.execute, which
/// executes the PQP bottom-up with one operators.<Name> span per
/// AbstractOperator::Execute() call. Statements run in auto-commit
/// transactions when MVCC is on. BEGIN/COMMIT/ROLLBACK are parsed only.
StagedResult RunStaged(const std::string& sql, const StagedOptions& options, Tracer* tracer);

/// Mean microseconds from AbstractTask::Schedule() to Join() of an empty
/// JobTask on the currently installed scheduler.
double MeanDispatchUs(size_t samples);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STAGED_HPP_

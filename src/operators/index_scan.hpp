#ifndef HYRISE_SRC_OPERATORS_INDEX_SCAN_HPP_
#define HYRISE_SRC_OPERATORS_INDEX_SCAN_HPP_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "operators/abstract_operator.hpp"
#include "storage/index/abstract_chunk_index.hpp"

namespace hyrise {

/// Scans a stored table through its per-chunk secondary indexes (paper §2.4:
/// "indexes yield qualifying positions for one or more predicates"). Chunks
/// without a matching index run TableScan's kernel for the same typed
/// predicate. Supports equality and range conditions against a literal.
class IndexScan final : public AbstractOperator {
 public:
  IndexScan(std::string table_name, std::vector<ChunkID> pruned_chunk_ids, ColumnID column_id,
            PredicateCondition condition, AllTypeVariant value, std::optional<AllTypeVariant> value2 = std::nullopt);

  const std::string& name() const final {
    static const auto kName = std::string{"IndexScan"};
    return kName;
  }

  std::string Description() const final;

  const std::string& table_name() const {
    return table_name_;
  }

  const std::vector<ChunkID>& pruned_chunk_ids() const {
    return pruned_chunk_ids_;
  }

  ColumnID column_id() const {
    return column_id_;
  }

  PredicateCondition condition() const {
    return condition_;
  }

  const AllTypeVariant& value() const {
    return value_;
  }

  const std::optional<AllTypeVariant>& value2() const {
    return value2_;
  }

 protected:
  std::shared_ptr<const Table> OnExecute(const std::shared_ptr<TransactionContext>& context) final;

  std::shared_ptr<AbstractOperator> OnDeepCopy(std::shared_ptr<AbstractOperator> /*left*/,
                                               std::shared_ptr<AbstractOperator> /*right*/,
                                               DeepCopyMap& /*map*/) const final {
    return std::make_shared<IndexScan>(table_name_, pruned_chunk_ids_, column_id_, condition_, value_, value2_);
  }

 private:
  std::string table_name_;
  std::vector<ChunkID> pruned_chunk_ids_;
  ColumnID column_id_;
  PredicateCondition condition_;
  AllTypeVariant value_;
  std::optional<AllTypeVariant> value2_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_INDEX_SCAN_HPP_

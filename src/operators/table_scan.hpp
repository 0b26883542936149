#ifndef HYRISE_SRC_OPERATORS_TABLE_SCAN_HPP_
#define HYRISE_SRC_OPERATORS_TABLE_SCAN_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "expression/expressions.hpp"
#include "expression/predicate_literal.hpp"
#include "operators/abstract_operator.hpp"

namespace hyrise {

class AbstractSegment;
class Chunk;
class Table;

/// TableScan's kernel for a literal predicate typed by TypePredicateLiteral:
/// appends the offsets of matching rows of `segment` (a T column). A type
/// mismatch fails the statement (DataTypeMismatch).
template <typename T>
void ScanSegmentForLiteral(const AbstractSegment& segment, const TypedPredicate<T>& predicate,
                           std::vector<ChunkOffset>& matches);

/// Filters rows by a predicate expression. Simple predicate shapes
/// (column-vs-value, BETWEEN, LIKE, IN lists of literals, IS NULL,
/// column-vs-column) run as specialized, statically resolved scans —
/// dictionary segments, stored or referenced through a single-chunk pos
/// list, are scanned on integer value IDs without decoding (paper §2.3).
/// Anything more complex falls back to the expression evaluator.
class TableScan final : public AbstractOperator {
 public:
  TableScan(std::shared_ptr<AbstractOperator> input, ExpressionPtr predicate);

  const std::string& name() const final {
    static const auto kName = std::string{"TableScan"};
    return kName;
  }

  std::string Description() const final;

  const ExpressionPtr& predicate() const {
    return predicate_;
  }

 protected:
  std::shared_ptr<const Table> OnExecute(const std::shared_ptr<TransactionContext>& context) final;

  void OnSetParameters(const std::unordered_map<ParameterID, AllTypeVariant>& parameters) final;

  std::shared_ptr<AbstractOperator> OnDeepCopy(std::shared_ptr<AbstractOperator> left,
                                               std::shared_ptr<AbstractOperator> right, DeepCopyMap& map) const final;

 private:
  std::vector<ChunkOffset> ScanChunk(const std::shared_ptr<const Table>& table, ChunkID chunk_id,
                                     const std::shared_ptr<TransactionContext>& context) const;

  ExpressionPtr predicate_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_TABLE_SCAN_HPP_

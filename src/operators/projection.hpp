#ifndef HYRISE_SRC_OPERATORS_PROJECTION_HPP_
#define HYRISE_SRC_OPERATORS_PROJECTION_HPP_

#include <memory>

#include "expression/expressions.hpp"
#include "operators/abstract_operator.hpp"

namespace hyrise {

/// Computes expressions over its input — the workhorse for non-trivial column
/// operations (paper §2.6): arithmetic, CASE, string functions, subselects.
/// Column references are forwarded as the input's segments, without
/// copying; the output has the input's table type (DESIGN.md §5c).
class Projection final : public AbstractOperator {
 public:
  Projection(std::shared_ptr<AbstractOperator> input, Expressions expressions);

  const std::string& name() const final {
    static const auto kName = std::string{"Projection"};
    return kName;
  }

  std::string Description() const final;

  const Expressions& expressions() const {
    return expressions_;
  }

 protected:
  std::shared_ptr<const Table> OnExecute(const std::shared_ptr<TransactionContext>& context) final;

  void OnSetParameters(const std::unordered_map<ParameterID, AllTypeVariant>& parameters) final;

  std::shared_ptr<AbstractOperator> OnDeepCopy(std::shared_ptr<AbstractOperator> left,
                                               std::shared_ptr<AbstractOperator> right, DeepCopyMap& map) const final;

 private:
  Expressions expressions_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_PROJECTION_HPP_

#include "optimizer/rules/chunk_pruning_rule.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "expression/expressions.hpp"
#include "hyrise.hpp"
#include "logical_query_plan/operator_nodes.hpp"
#include "logical_query_plan/stored_table_node.hpp"
#include "statistics/abstract_segment_filter.hpp"
#include "storage/table.hpp"

namespace hyrise {

namespace {

struct PruningContext {
  /// Chains of predicates per StoredTableNode; the final pruned set is the
  /// intersection across chains (a shared scan must satisfy every consumer).
  std::map<StoredTableNode*, std::vector<std::set<ChunkID>>> candidate_sets;
};

/// Checks one predicate against one chunk's filters. Returns true if the
/// chunk provably contains no matching row.
bool PredicatePrunesChunk(const AbstractExpression& predicate, const StoredTableNode& stored, const Chunk& chunk) {
  if (!chunk.pruning_statistics() || predicate.type != ExpressionType::kPredicate) {
    return false;
  }
  // `column <condition> value [value]`; the filters type the values and
  // decline conditions they cannot use.
  const auto& typed = static_cast<const PredicateExpression&>(predicate);
  const auto& arguments = typed.arguments;
  if (arguments.size() < 2 || arguments.size() > 3 || arguments[0]->type != ExpressionType::kLqpColumn ||
      std::any_of(arguments.begin() + 1, arguments.end(),
                  [](const auto& argument) { return argument->type != ExpressionType::kValue; })) {
    return false;
  }
  const auto& column = static_cast<const LqpColumnExpression&>(*arguments[0]);
  if (column.original_node.lock().get() != &stored) {
    return false;
  }
  const auto& value = static_cast<const ValueExpression&>(*arguments[1]).value;
  auto value2 = std::optional<AllTypeVariant>{};
  if (arguments.size() == 3) {
    value2 = static_cast<const ValueExpression&>(*arguments[2]).value;
  }
  const auto& filters = *chunk.pruning_statistics();
  if (column.original_column_id >= filters.size() || !filters[column.original_column_id]) {
    return false;
  }
  return filters[column.original_column_id]->CanPrune(typed.condition, value, value2);
}

void CollectChains(const LqpNodePtr& node, std::vector<ExpressionPtr> predicates, PruningContext& context) {
  switch (node->type) {
    case LqpNodeType::kPredicate:
      predicates.push_back(static_cast<const PredicateNode&>(*node).predicate());
      CollectChains(node->left_input, std::move(predicates), context);
      return;
    case LqpNodeType::kValidate:
      CollectChains(node->left_input, std::move(predicates), context);
      return;
    case LqpNodeType::kStoredTable: {
      auto* stored = static_cast<StoredTableNode*>(node.get());
      const auto table = Hyrise::Get().storage_manager.GetTable(stored->table_name);
      auto prunable = std::set<ChunkID>{};
      const auto chunk_count = table->chunk_count();
      for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
        const auto chunk = table->GetChunk(chunk_id);
        for (const auto& predicate : predicates) {
          if (PredicatePrunesChunk(*predicate, *stored, *chunk)) {
            prunable.insert(chunk_id);
            break;
          }
        }
      }
      context.candidate_sets[stored].push_back(std::move(prunable));
      return;
    }
    default:
      if (node->left_input) {
        CollectChains(node->left_input, {}, context);
      }
      if (node->right_input) {
        CollectChains(node->right_input, {}, context);
      }
      return;
  }
}

}  // namespace

bool ChunkPruningRule::Apply(LqpNodePtr& root) const {
  auto context = PruningContext{};
  CollectChains(root, {}, context);

  auto changed = false;
  for (auto& [stored, sets] : context.candidate_sets) {
    auto pruned = sets.front();
    for (auto index = size_t{1}; index < sets.size() && !pruned.empty(); ++index) {
      auto intersection = std::set<ChunkID>{};
      for (const auto chunk_id : pruned) {
        if (sets[index].contains(chunk_id)) {
          intersection.insert(chunk_id);
        }
      }
      pruned = std::move(intersection);
    }
    if (!pruned.empty() && stored->pruned_chunk_ids.empty()) {
      stored->pruned_chunk_ids.assign(pruned.begin(), pruned.end());
      changed = true;
    }
  }
  return changed;
}

}  // namespace hyrise

#include "optimizer/rules/join_ordering_rule.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "expression/expression_utils.hpp"
#include "expression/expressions.hpp"
#include "logical_query_plan/operator_nodes.hpp"
#include "statistics/cardinality_estimator.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

struct RegionPredicate {
  ExpressionPtr expression;
  uint32_t vertex_mask{0};
};

/// A (partial) plan with its estimated cardinality.
struct SizedPlan {
  LqpNodePtr plan;
  double rows{0.0};
};

/// Best split found for one subset of the region's vertices.
struct DpEntry {
  double cost{0.0};
  double rows{0.0};
  uint32_t left_mask{0};
  bool valid{false};
};

bool IsReorderableJoin(const LqpNodePtr& node) {
  if (node->type != LqpNodeType::kJoin) {
    return false;
  }
  const auto mode = static_cast<const JoinNode&>(*node).join_mode;
  return mode == JoinMode::kInner || mode == JoinMode::kCross;
}

void CollectRegion(const LqpNodePtr& node, std::vector<LqpNodePtr>& vertices, Expressions& predicates) {
  if (IsReorderableJoin(node)) {
    for (const auto& predicate : node->node_expressions) {
      predicates.push_back(predicate);
    }
    CollectRegion(node->left_input, vertices, predicates);
    CollectRegion(node->right_input, vertices, predicates);
    return;
  }
  vertices.push_back(node);
}

/// The predicates that join the vertex sets `s1` and `s2`.
Expressions ConnectingPredicates(const std::vector<RegionPredicate>& predicates, uint32_t s1, uint32_t s2) {
  auto connecting = Expressions{};
  for (const auto& predicate : predicates) {
    if ((predicate.vertex_mask & ~(s1 | s2)) == 0 && (predicate.vertex_mask & s1) != 0 &&
        (predicate.vertex_mask & s2) != 0) {
      connecting.push_back(predicate.expression);
    }
  }
  return connecting;
}

/// Builds the inner join of two partial plans with the given predicates
/// (smaller side as the hash join's build side on the right). The hash join
/// keys on the first predicate, so equalities go first and the most
/// selective one leads: it produces the fewest candidates per probe.
LqpNodePtr MakeJoin(const SizedPlan& left, const SizedPlan& right, Expressions connecting,
                    const CardinalityEstimator& estimator) {
  const auto& build_side = right.rows <= left.rows ? right : left;
  const auto& probe_side = right.rows <= left.rows ? left : right;
  if (connecting.empty()) {
    return JoinNode::MakeCross(probe_side.plan, build_side.plan);
  }
  const auto rank = [&](const ExpressionPtr& predicate) {
    const auto is_equality = predicate->type == ExpressionType::kPredicate &&
                             static_cast<const PredicateExpression&>(*predicate).condition == PredicateCondition::kEquals;
    return std::pair{!is_equality, estimator.EstimateJoinSelectivity({predicate})};
  };
  std::stable_sort(connecting.begin(), connecting.end(),
                   [&](const auto& lhs, const auto& rhs) { return rank(lhs) < rank(rhs); });
  return JoinNode::Make(JoinMode::kInner, std::move(connecting), probe_side.plan, build_side.plan);
}

/// Materializes the DP's best plan for the vertex subset `mask`.
SizedPlan BuildPlan(const std::vector<DpEntry>& dp, uint32_t mask, const std::vector<LqpNodePtr>& vertices,
                    const std::vector<RegionPredicate>& predicates, const CardinalityEstimator& estimator) {
  if (std::popcount(mask) == 1) {
    return {vertices[std::countr_zero(mask)], dp[mask].rows};
  }
  const auto left_mask = dp[mask].left_mask;
  const auto right_mask = mask ^ left_mask;
  return {MakeJoin(BuildPlan(dp, left_mask, vertices, predicates, estimator),
                   BuildPlan(dp, right_mask, vertices, predicates, estimator),
                   ConnectingPredicates(predicates, left_mask, right_mask), estimator),
          dp[mask].rows};
}

LqpNodePtr OrderRegion(const std::vector<LqpNodePtr>& vertices, const std::vector<RegionPredicate>& predicates,
                       const CardinalityEstimator& estimator) {
  const auto vertex_count = vertices.size();
  const auto full_mask = vertex_count >= 32 ? 0u : (uint32_t{1} << vertex_count) - 1;

  if (vertex_count <= JoinOrderingRule::kExhaustiveLimit) {
    // Exhaustive DP over subsets; only connected splits unless the subset has
    // no connecting predicate at all.
    auto dp = std::vector<DpEntry>(size_t{1} << vertex_count);
    for (auto index = size_t{0}; index < vertex_count; ++index) {
      dp[size_t{1} << index] = {0.0, std::max(1.0, estimator.EstimateRowCount(vertices[index])), 0, true};
    }
    for (auto mask = uint32_t{1}; mask <= full_mask; ++mask) {
      if (std::popcount(mask) < 2) {
        continue;
      }
      auto& best = dp[mask];
      for (const auto allow_cross : {false, true}) {
        if (best.valid && allow_cross) {
          break;  // Found a connected plan; never force cross products.
        }
        for (auto s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
          const auto s2 = mask ^ s1;
          if (s1 < s2) {
            continue;  // Each unordered split once; MakeJoin picks sides.
          }
          const auto& left = dp[s1];
          const auto& right = dp[s2];
          if (!left.valid || !right.valid) {
            continue;
          }
          const auto connecting = ConnectingPredicates(predicates, s1, s2);
          if (connecting.empty() && !allow_cross) {
            continue;
          }
          const auto rows = std::max(1.0, left.rows * right.rows * estimator.EstimateJoinSelectivity(connecting));
          const auto cost = left.cost + right.cost + rows;
          if (!best.valid || cost < best.cost) {
            best = {cost, rows, s1, true};
          }
        }
      }
      Assert(best.valid, "DP failed to build a plan for a subset");
    }
    return BuildPlan(dp, full_mask, vertices, predicates, estimator).plan;
  }

  // Greedy left-deep fallback for very large regions.
  auto remaining = std::vector<SizedPlan>{};
  auto remaining_masks = std::vector<uint32_t>{};
  for (auto index = size_t{0}; index < vertex_count; ++index) {
    remaining.push_back({vertices[index], std::max(1.0, estimator.EstimateRowCount(vertices[index]))});
    remaining_masks.push_back(uint32_t{1} << index);
  }
  while (remaining.size() > 1) {
    auto best_rows = std::numeric_limits<double>::max();
    auto best_i = size_t{0};
    auto best_j = size_t{1};
    auto best_connecting = Expressions{};
    for (auto i = size_t{0}; i < remaining.size(); ++i) {
      for (auto j = i + 1; j < remaining.size(); ++j) {
        auto connecting = ConnectingPredicates(predicates, remaining_masks[i], remaining_masks[j]);
        const auto penalty = connecting.empty() ? 1e6 : 1.0;  // Crosses only as a last resort.
        const auto rows =
            remaining[i].rows * remaining[j].rows * estimator.EstimateJoinSelectivity(connecting) * penalty;
        if (rows < best_rows) {
          best_rows = rows;
          best_i = i;
          best_j = j;
          best_connecting = std::move(connecting);
        }
      }
    }
    remaining[best_i] = {MakeJoin(remaining[best_i], remaining[best_j], std::move(best_connecting), estimator),
                         std::max(1.0, best_rows)};
    remaining_masks[best_i] |= remaining_masks[best_j];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best_j));
    remaining_masks.erase(remaining_masks.begin() + static_cast<ptrdiff_t>(best_j));
  }
  return remaining.front().plan;
}

bool ReorderRecursively(LqpNodePtr& edge, const CardinalityEstimator& estimator) {
  auto changed = false;
  if (IsReorderableJoin(edge)) {
    auto vertices = std::vector<LqpNodePtr>{};
    auto raw_predicates = Expressions{};
    CollectRegion(edge, vertices, raw_predicates);

    // Optimize below the region first.
    for (const auto& vertex : vertices) {
      if (vertex->left_input) {
        changed |= ReorderRecursively(vertex->left_input, estimator);
      }
      if (vertex->right_input) {
        changed |= ReorderRecursively(vertex->right_input, estimator);
      }
    }

    if (vertices.size() > 2 && vertices.size() <= 31) {
      // Assign predicates to the vertices they reference.
      auto predicates = std::vector<RegionPredicate>{};
      auto deferred = Expressions{};  // Reference columns outside the region.
      for (const auto& expression : raw_predicates) {
        auto columns = Expressions{};
        CollectLqpColumns(expression, columns);
        auto mask = uint32_t{0};
        auto resolvable = true;
        for (const auto& column : columns) {
          auto found = false;
          for (auto index = size_t{0}; index < vertices.size(); ++index) {
            if (ExpressionEvaluableOnLqp(column, *vertices[index])) {
              mask |= uint32_t{1} << index;
              found = true;
              break;
            }
          }
          resolvable &= found;
        }
        if (!resolvable || std::popcount(mask) < 2) {
          deferred.push_back(expression);
          continue;
        }
        predicates.push_back({expression, mask});
      }

      auto plan = OrderRegion(vertices, predicates, estimator);
      // Predicates referencing outer context (single-vertex leftovers or
      // correlated columns) go back on top.
      for (const auto& expression : deferred) {
        plan = PredicateNode::Make(expression, plan);
      }
      edge = std::move(plan);
      changed = true;
      return changed;
    }
    return changed;
  }

  if (edge->left_input) {
    changed |= ReorderRecursively(edge->left_input, estimator);
  }
  if (edge->right_input) {
    changed |= ReorderRecursively(edge->right_input, estimator);
  }
  return changed;
}

}  // namespace

bool JoinOrderingRule::Apply(LqpNodePtr& root) const {
  const auto estimator = CardinalityEstimator{};
  return ReorderRecursively(root, estimator);
}

}  // namespace hyrise

#include <gtest/gtest.h>

#include <algorithm>

#include "benchmarklib/tpch/tpch_queries.hpp"
#include "benchmarklib/tpch/tpch_table_generator.hpp"
#include "expression/expression_utils.hpp"
#include "expression/expressions.hpp"
#include "hyrise.hpp"
#include "optimizer/optimizer.hpp"
#include "optimizer/rules/chunk_pruning_rule.hpp"
#include "optimizer/rules/expression_reduction_rule.hpp"
#include "optimizer/rules/index_scan_rule.hpp"
#include "optimizer/rules/join_ordering_rule.hpp"
#include "optimizer/rules/predicate_pushdown_rule.hpp"
#include "optimizer/rules/subquery_to_join_rule.hpp"
#include "logical_query_plan/operator_nodes.hpp"
#include "logical_query_plan/stored_table_node.hpp"
#include "sql/sql_parser.hpp"
#include "sql/sql_pipeline.hpp"
#include "sql/sql_translator.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/index/abstract_chunk_index.hpp"
#include "storage/chunk_encoder.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

/// Translates one SQL statement into an (unoptimized) LQP.
LqpNodePtr TranslateQuery(const std::string& sql) {
  auto parsed = sql::ParseSql(sql);
  Assert(parsed.ok(), parsed.error());
  auto translator = SqlTranslator{UseMvcc::kNo};
  auto lqp = translator.Translate(*parsed.value().at(0));
  Assert(lqp.ok(), lqp.error());
  return lqp.value();
}

size_t CountNodes(const LqpNodePtr& root, LqpNodeType type) {
  auto count = size_t{0};
  VisitLqp(root, [&](const LqpNodePtr& node) {
    count += node->type == type;
    return true;
  });
  return count;
}

/// The deepest PredicateNode / JoinNode structure check helper.
template <typename NodeType>
std::vector<std::shared_ptr<NodeType>> CollectNodes(const LqpNodePtr& root, LqpNodeType type) {
  auto nodes = std::vector<std::shared_ptr<NodeType>>{};
  VisitLqp(root, [&](const LqpNodePtr& node) {
    if (node->type == type) {
      nodes.push_back(std::static_pointer_cast<NodeType>(node));
    }
    return true;
  });
  return nodes;
}

/// The first node (pre-order) of the plan satisfying `match`, or nullptr.
template <typename Match>
LqpNodePtr FindNode(const LqpNodePtr& root, const Match& match) {
  auto found = LqpNodePtr{};
  VisitLqp(root, [&](const LqpNodePtr& node) {
    if (!found && match(node)) {
      found = node;
    }
    return !found;
  });
  return found;
}

/// Matches nodes that carry an expression whose description contains `text`.
auto HasExpression(const std::string& text) {
  return [text](const LqpNodePtr& node) {
    return std::any_of(node->node_expressions.begin(), node->node_expressions.end(),
                       [&](const auto& expression) { return expression->Description().find(text) != std::string::npos; });
  };
}

auto IsStoredTable(const std::string& table_name) {
  return [table_name](const LqpNodePtr& node) {
    return node->type == LqpNodeType::kStoredTable && static_cast<const StoredTableNode&>(*node).table_name == table_name;
  };
}

}  // namespace

class OptimizerRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    ExecuteSql("CREATE TABLE r (a INT NOT NULL, b INT NOT NULL)");
    ExecuteSql("CREATE TABLE s (c INT NOT NULL, d INT NOT NULL)");
    ExecuteSql("CREATE TABLE u (e INT NOT NULL, f INT NOT NULL)");
    for (auto row = 0; row < 50; ++row) {
      ExecuteSql("INSERT INTO r VALUES (" + std::to_string(row) + ", " + std::to_string(row % 5) + ")");
      ExecuteSql("INSERT INTO s VALUES (" + std::to_string(row % 10) + ", " + std::to_string(row) + ")");
      ExecuteSql("INSERT INTO u VALUES (" + std::to_string(row % 3) + ", " + std::to_string(row) + ")");
    }
  }
};

TEST_F(OptimizerRulesTest, ExpressionReductionFoldsConstants) {
  auto lqp = TranslateQuery("SELECT a FROM r WHERE a < 2 + 3 * 4");
  ApplyRuleRecursively(ExpressionReductionRule{}, lqp);
  const auto predicates = CollectNodes<PredicateNode>(lqp, LqpNodeType::kPredicate);
  ASSERT_EQ(predicates.size(), 1u);
  const auto& predicate = *predicates[0]->predicate();
  ASSERT_EQ(predicate.arguments[1]->type, ExpressionType::kValue);
  EXPECT_EQ(std::get<int32_t>(static_cast<const ValueExpression&>(*predicate.arguments[1]).value), 14);
}

TEST_F(OptimizerRulesTest, ExpressionReductionFactorsCommonConjuncts) {
  auto lqp = TranslateQuery("SELECT a FROM r WHERE (a = 1 AND b = 2) OR (a = 1 AND b = 3)");
  ApplyRuleRecursively(ExpressionReductionRule{}, lqp);
  const auto predicates = CollectNodes<PredicateNode>(lqp, LqpNodeType::kPredicate);
  ASSERT_EQ(predicates.size(), 1u);
  // Factored into (a = 1) AND (b = 2 OR b = 3).
  const auto conjuncts = FlattenConjunction(predicates[0]->predicate());
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->type, ExpressionType::kPredicate);
  EXPECT_EQ(conjuncts[1]->type, ExpressionType::kLogical);
}

TEST_F(OptimizerRulesTest, PushdownTurnsCrossIntoInnerJoin) {
  auto lqp = TranslateQuery("SELECT a FROM r, s WHERE a = c AND b > 1");
  EXPECT_EQ(CountNodes(lqp, LqpNodeType::kJoin), 1u);
  ApplyRuleRecursively(PredicatePushdownRule{}, lqp);
  const auto joins = CollectNodes<JoinNode>(lqp, LqpNodeType::kJoin);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->join_mode, JoinMode::kInner) << "cross join + equi predicate becomes inner join";
  // b > 1 sank below the join, onto r's side.
  EXPECT_EQ(joins[0]->left_input->type, LqpNodeType::kPredicate);
}

TEST_F(OptimizerRulesTest, JoinOrderingJoinsSelectiveTablesFirst) {
  // Three-way join; exhaustive DP must produce a fully predicated plan (no
  // cross products) and keep results identical.
  auto lqp = TranslateQuery("SELECT r.a FROM r, s, u WHERE r.a = s.c AND s.d = u.f");
  ApplyRuleRecursively(PredicatePushdownRule{}, lqp);
  ApplyRuleRecursively(JoinOrderingRule{}, lqp);
  const auto joins = CollectNodes<JoinNode>(lqp, LqpNodeType::kJoin);
  ASSERT_EQ(joins.size(), 2u);
  for (const auto& join : joins) {
    EXPECT_EQ(join->join_mode, JoinMode::kInner);
    EXPECT_FALSE(join->node_expressions.empty());
  }
}

TEST_F(OptimizerRulesTest, SubqueryToJoinRewritesExists) {
  auto lqp = TranslateQuery("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)");
  ASSERT_EQ(CountNodes(lqp, LqpNodeType::kJoin), 0u);
  ApplyRuleRecursively(SubqueryToJoinRule{}, lqp);
  const auto joins = CollectNodes<JoinNode>(lqp, LqpNodeType::kJoin);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->join_mode, JoinMode::kSemi);
}

TEST_F(OptimizerRulesTest, SubqueryToJoinRewritesNotInAsAnti) {
  auto lqp = TranslateQuery("SELECT a FROM r WHERE a NOT IN (SELECT c FROM s)");
  ApplyRuleRecursively(SubqueryToJoinRule{}, lqp);
  const auto joins = CollectNodes<JoinNode>(lqp, LqpNodeType::kJoin);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->join_mode, JoinMode::kAnti);
}

TEST_F(OptimizerRulesTest, SubqueryToJoinRegroupsCorrelatedScalar) {
  auto lqp = TranslateQuery("SELECT a FROM r WHERE b < (SELECT AVG(d) FROM s WHERE s.c = r.a)");
  ApplyRuleRecursively(SubqueryToJoinRule{}, lqp);
  EXPECT_EQ(CountNodes(lqp, LqpNodeType::kJoin), 1u);
  // The aggregate is now grouped by the correlation column.
  const auto aggregates = CollectNodes<AggregateNode>(lqp, LqpNodeType::kAggregate);
  auto found_grouped = false;
  for (const auto& aggregate : aggregates) {
    found_grouped |= aggregate->group_by_count == 1;
  }
  EXPECT_TRUE(found_grouped);
}

TEST_F(OptimizerRulesTest, SubqueryRewriteLeavesUnsafePatternsAlone) {
  // Correlation under an aggregate with a non-equality condition: no rewrite.
  auto lqp = TranslateQuery("SELECT a FROM r WHERE EXISTS (SELECT MAX(d) FROM s WHERE s.c = r.a)");
  const auto before = CountNodes(lqp, LqpNodeType::kJoin);
  ApplyRuleRecursively(SubqueryToJoinRule{}, lqp);
  EXPECT_EQ(CountNodes(lqp, LqpNodeType::kJoin), before) << "correlation below aggregate must not be lifted blindly";
}

TEST_F(OptimizerRulesTest, ChunkPruningMarksStoredTableNodes) {
  Hyrise::Reset();
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"v", DataType::kInt}}, TableType::kData, 100);
  for (auto row = 0; row < 300; ++row) {
    table->AppendRow({row});
  }
  ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
  Hyrise::Get().storage_manager.AddTable("seq", table);
  GenerateChunkPruningStatistics(table);

  auto lqp = TranslateQuery("SELECT v FROM seq WHERE v >= 250");
  ApplyRuleRecursively(ChunkPruningRule{}, lqp);
  const auto stored_nodes = CollectNodes<StoredTableNode>(lqp, LqpNodeType::kStoredTable);
  ASSERT_EQ(stored_nodes.size(), 1u);
  // Chunks 0 (0..99) and 1 (100..199) are prunable.
  EXPECT_EQ(stored_nodes[0]->pruned_chunk_ids, (std::vector<ChunkID>{ChunkID{0}, ChunkID{1}}));

  // End-to-end: pruned plan returns the same rows.
  ExpectTableContents(ExecuteSql("SELECT COUNT(*) FROM seq WHERE v >= 250"), {{int64_t{50}}});
}

TEST_F(OptimizerRulesTest, IndexScanRuleSetsHintOnlyWithIndexAndSelectivity) {
  Hyrise::Reset();
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"v", DataType::kInt}}, TableType::kData, 1000);
  for (auto row = 0; row < 5000; ++row) {
    table->AppendRow({row});
  }
  ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
  Hyrise::Get().storage_manager.AddTable("indexed", table);
  for (auto chunk_id = ChunkID{0}; chunk_id < table->chunk_count(); ++chunk_id) {
    const auto chunk = table->GetChunk(chunk_id);
    chunk->AddIndex({ColumnID{0}}, CreateChunkIndex(ChunkIndexType::kGroupKey, chunk->GetSegment(ColumnID{0})));
  }

  auto selective = TranslateQuery("SELECT v FROM indexed WHERE v = 123");
  ApplyRuleRecursively(IndexScanRule{}, selective);
  const auto predicates = CollectNodes<PredicateNode>(selective, LqpNodeType::kPredicate);
  ASSERT_EQ(predicates.size(), 1u);
  EXPECT_TRUE(predicates[0]->prefer_index);

  auto unselective = TranslateQuery("SELECT v FROM indexed WHERE v > 10");
  ApplyRuleRecursively(IndexScanRule{}, unselective);
  const auto unselective_predicates = CollectNodes<PredicateNode>(unselective, LqpNodeType::kPredicate);
  ASSERT_EQ(unselective_predicates.size(), 1u);
  EXPECT_FALSE(unselective_predicates[0]->prefer_index) << "high selectivity prefers the scan";
}

/// Join orders the default optimizer picks for TPC-H. The plans depend only on
/// the statistics, so the tables stay unencoded. SF 0.02 is the smallest scale
/// at which supplier outgrows the estimated nation × nation pairs of Q7.
class TpchJoinOrderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Hyrise::Reset();
    auto config = TpchConfig{};
    config.scale_factor = 0.02;
    config.encoding = SegmentEncodingSpec{EncodingType::kUnencoded};
    config.generate_statistics = false;
    GenerateTpchTables(config);
  }

  static LqpNodePtr OptimizedPlan(size_t query_id) {
    return Optimizer::CreateDefault()->Optimize(TranslateQuery(TpchQuery(query_id)));
  }
};

TEST_F(TpchJoinOrderTest, Q9JoinsFilteredPartFirstAndQ7FiltersNationPairsBelowSupplier) {
  // Q9: ps_partkey = l_partkey AND ps_suppkey = l_suppkey is one correlated
  // key, so lineitem⋈partsupp keeps every lineitem row; the 5% part filter
  // must shrink lineitem before partsupp joins.
  const auto q9 = OptimizedPlan(9);
  const auto partsupp_join = FindNode(q9, HasExpression("ps_partkey = l_partkey"));
  ASSERT_TRUE(partsupp_join);
  const auto part_filter = FindNode(partsupp_join, HasExpression("LIKE"));
  ASSERT_TRUE(part_filter) << "the filtered part is joined above lineitem⋈partsupp";
  EXPECT_TRUE(FindNode(part_filter, IsStoredTable("part")));

  // Q7: the OR of the two nation names joins nation × nation before supplier.
  const auto q7 = OptimizedPlan(7);
  const auto supplier_join = FindNode(q7, HasExpression("s_nationkey = n_nationkey"));
  ASSERT_TRUE(supplier_join);
  const auto nation_pairs = FindNode(supplier_join, HasExpression(" OR "));
  ASSERT_TRUE(nation_pairs) << "the OR predicate is applied above the supplier join";
  const auto tables = CollectNodes<StoredTableNode>(nation_pairs, LqpNodeType::kStoredTable);
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0]->table_name, "nation");
  EXPECT_EQ(tables[1]->table_name, "nation");
}

}  // namespace hyrise

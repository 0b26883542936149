#include <gtest/gtest.h>

#include "hyrise.hpp"
#include "logical_query_plan/operator_nodes.hpp"
#include "logical_query_plan/stored_table_node.hpp"
#include "sql/sql_parser.hpp"
#include "sql/sql_pipeline.hpp"
#include "sql/sql_translator.hpp"
#include "statistics/cardinality_estimator.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

LqpNodePtr TranslateQuery(const std::string& sql) {
  auto parsed = sql::ParseSql(sql);
  Assert(parsed.ok(), parsed.error());
  auto translator = SqlTranslator{UseMvcc::kNo};
  auto lqp = translator.Translate(*parsed.value().at(0));
  Assert(lqp.ok(), lqp.error());
  return lqp.value();
}

ExpressionPtr Column(const LqpNodePtr& table, const std::string& name) {
  for (const auto& column : table->output_expressions()) {
    if (column->Description() == name) {
      return column;
    }
  }
  Fail("No column " + name);
}

ExpressionPtr Compare(PredicateCondition condition, const ExpressionPtr& left, const ExpressionPtr& right) {
  return std::make_shared<PredicateExpression>(condition, Expressions{left, right});
}

}  // namespace

class CardinalityEstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    ExecuteSql("CREATE TABLE facts (k INT NOT NULL, grp INT NOT NULL, val DOUBLE)");
    // 10 000 rows: k unique, grp has 100 distinct values.
    auto table = Hyrise::Get().storage_manager.GetTable("facts");
    for (auto row = 0; row < 10'000; ++row) {
      table->AppendRow({row, row % 100, static_cast<double>(row % 977)});
    }
  }
};

TEST_F(CardinalityEstimatorTest, BaseTableRowCount) {
  const auto estimator = CardinalityEstimator{};
  const auto lqp = TranslateQuery("SELECT * FROM facts");
  EXPECT_NEAR(estimator.EstimateRowCount(lqp), 10'000.0, 10.0);
}

TEST_F(CardinalityEstimatorTest, RangePredicateSelectivityFromHistogram) {
  const auto estimator = CardinalityEstimator{};
  const auto lqp = TranslateQuery("SELECT * FROM facts WHERE k < 2500");
  EXPECT_NEAR(estimator.EstimateRowCount(lqp), 2'500.0, 300.0);
}

TEST_F(CardinalityEstimatorTest, EqualityUsesDistinctCounts) {
  const auto estimator = CardinalityEstimator{};
  const auto lqp = TranslateQuery("SELECT * FROM facts WHERE grp = 7");
  EXPECT_NEAR(estimator.EstimateRowCount(lqp), 100.0, 40.0);
}

TEST_F(CardinalityEstimatorTest, ConjunctionsMultiply) {
  const auto estimator = CardinalityEstimator{};
  const auto lqp = TranslateQuery("SELECT * FROM facts WHERE grp = 7 AND k < 5000");
  EXPECT_NEAR(estimator.EstimateRowCount(lqp), 50.0, 30.0);
}

TEST_F(CardinalityEstimatorTest, EquiJoinContainment) {
  ExecuteSql("CREATE TABLE dim (grp INT NOT NULL, name VARCHAR(10))");
  auto dim = Hyrise::Get().storage_manager.GetTable("dim");
  for (auto row = 0; row < 100; ++row) {
    dim->AppendRow({row, std::string{"g"}});
  }
  const auto estimator = CardinalityEstimator{};
  const auto lqp = TranslateQuery("SELECT * FROM facts JOIN dim ON facts.grp = dim.grp");
  // Key-foreign-key join: output ≈ fact rows.
  EXPECT_NEAR(estimator.EstimateRowCount(lqp), 10'000.0, 2'000.0);
}

TEST_F(CardinalityEstimatorTest, CompositeKeyBetweenTwoTablesIsCappedAtTheSmallerTable) {
  // lineitem⋈partsupp shape: `supply` lists 4 of 100 suppliers for each of
  // 1 000 parts, and every `line` row references one (part, supplier) pair of
  // `supply`. The two key columns are correlated: 1 000 × 100 distinct pairs
  // are possible, but only 4 000 exist.
  ExecuteSql("CREATE TABLE supply (part INT NOT NULL, supplier INT NOT NULL)");
  ExecuteSql("CREATE TABLE line (part INT NOT NULL, supplier INT NOT NULL)");
  auto supply = Hyrise::Get().storage_manager.GetTable("supply");
  auto line = Hyrise::Get().storage_manager.GetTable("line");
  const auto pair_of = [](int32_t index) {
    const auto part = index / 4;
    return std::vector<AllTypeVariant>{part, (part + (index % 4) * 25) % 100};
  };
  for (auto row = 0; row < 4'000; ++row) {
    supply->AppendRow(pair_of(row));
  }
  for (auto row = 0; row < 8'000; ++row) {
    line->AppendRow(pair_of(row % 4'000));
  }
  const auto supply_node = StoredTableNode::Make("supply");
  const auto line_node = StoredTableNode::Make("line");
  const auto join = JoinNode::Make(JoinMode::kInner,
                                   {Compare(PredicateCondition::kEquals, Column(line_node, "supplier"),
                                            Column(supply_node, "supplier")),
                                    Compare(PredicateCondition::kEquals, Column(line_node, "part"),
                                            Column(supply_node, "part"))},
                                   line_node, supply_node);
  const auto estimator = CardinalityEstimator{};
  // Every line row finds exactly its one supply row. Independent columns
  // would predict 8 000 × 4 000 / (1 000 × 100) = 320 rows; capping the
  // composite key at the smaller table's 4 000 rows gives the true 8 000.
  EXPECT_NEAR(estimator.EstimateRowCount(join), 8'000.0, 800.0);
  EXPECT_NEAR(estimator.EstimateJoinSelectivity(join->node_expressions), 1.0 / 4'000.0, 1.0 / 40'000.0);
}

TEST_F(CardinalityEstimatorTest, EqualitiesBetweenDifferentTablePairsStayIndependent) {
  // Q7 shape: (lineitem × customer) ⋈ (supplier × nation) on
  // l_suppkey = s_suppkey AND c_nationkey = n_nationkey. The two keys
  // connect different pairs of tables, so their selectivities multiply even
  // though their product of distinct counts (100 × 25) exceeds every table.
  ExecuteSql("CREATE TABLE supplier_keys (suppkey INT NOT NULL)");
  ExecuteSql("CREATE TABLE line_keys (suppkey INT NOT NULL)");
  ExecuteSql("CREATE TABLE customer_keys (nationkey INT NOT NULL)");
  ExecuteSql("CREATE TABLE nation_keys (nationkey INT NOT NULL)");
  auto& storage_manager = Hyrise::Get().storage_manager;
  for (auto row = 0; row < 2'000; ++row) {
    storage_manager.GetTable("line_keys")->AppendRow({row % 100});
  }
  for (auto row = 0; row < 100; ++row) {
    storage_manager.GetTable("supplier_keys")->AppendRow({row});
    storage_manager.GetTable("customer_keys")->AppendRow({row % 25});
  }
  for (auto row = 0; row < 25; ++row) {
    storage_manager.GetTable("nation_keys")->AppendRow({row});
  }
  const auto line = StoredTableNode::Make("line_keys");
  const auto customer = StoredTableNode::Make("customer_keys");
  const auto supplier = StoredTableNode::Make("supplier_keys");
  const auto nation = StoredTableNode::Make("nation_keys");
  const auto join = JoinNode::Make(
      JoinMode::kInner,
      {Compare(PredicateCondition::kEquals, Column(line, "suppkey"), Column(supplier, "suppkey")),
       Compare(PredicateCondition::kEquals, Column(customer, "nationkey"), Column(nation, "nationkey"))},
      JoinNode::MakeCross(line, customer), JoinNode::MakeCross(supplier, nation));
  const auto estimator = CardinalityEstimator{};
  // (2 000 × 100) × (100 × 25) / 100 / 25 = 200 000.
  EXPECT_NEAR(estimator.EstimateRowCount(join), 200'000.0, 20'000.0);
  EXPECT_NEAR(estimator.EstimateJoinSelectivity(join->node_expressions), 1.0 / 2'500.0, 1.0 / 25'000.0);
}

TEST_F(CardinalityEstimatorTest, NonEquiJoinConjunctMultipliesByDefaultSelectivity) {
  ExecuteSql("CREATE TABLE dim (grp INT NOT NULL, name VARCHAR(10))");
  auto dim = Hyrise::Get().storage_manager.GetTable("dim");
  for (auto row = 0; row < 100; ++row) {
    dim->AppendRow({row, std::string{"g"}});
  }
  const auto facts = StoredTableNode::Make("facts");
  const auto dim_node = StoredTableNode::Make("dim");
  const auto estimator = CardinalityEstimator{};
  const auto equality = Compare(PredicateCondition::kEquals, Column(facts, "grp"), Column(dim_node, "grp"));
  const auto non_equi = Compare(PredicateCondition::kLessThan, Column(facts, "k"), Column(dim_node, "grp"));
  const auto equi_join = JoinNode::Make(JoinMode::kInner, {equality}, facts, dim_node);
  // The non-equi conjunct leads, as in a join the translator keys on it.
  const auto theta_join = JoinNode::Make(JoinMode::kInner, {non_equi, equality}, facts, dim_node);
  const auto equi_rows = estimator.EstimateRowCount(equi_join);
  EXPECT_NEAR(equi_rows, 10'000.0, 2'000.0);
  EXPECT_NEAR(estimator.EstimateRowCount(theta_join), equi_rows * 0.3, 1.0);
}

TEST_F(CardinalityEstimatorTest, AggregateBoundedByGroupDistinctCount) {
  const auto estimator = CardinalityEstimator{};
  const auto lqp = TranslateQuery("SELECT grp, COUNT(*) FROM facts GROUP BY grp");
  EXPECT_NEAR(estimator.EstimateRowCount(lqp), 100.0, 20.0);
}

TEST_F(CardinalityEstimatorTest, LimitCaps) {
  const auto estimator = CardinalityEstimator{};
  const auto lqp = TranslateQuery("SELECT * FROM facts LIMIT 7");
  EXPECT_DOUBLE_EQ(estimator.EstimateRowCount(lqp), 7.0);
}

}  // namespace hyrise

#include <gtest/gtest.h>

#include "hyrise.hpp"
#include "sql/sql_pipeline.hpp"
#include "test_utils.hpp"

namespace hyrise {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    ExecuteSql("CREATE TABLE students (id INT NOT NULL, name VARCHAR(20) NOT NULL, semester INT, grade DOUBLE)");
    ExecuteSql(
        "INSERT INTO students VALUES (1, 'anna', 2, 1.3), (2, 'bert', 4, 2.7), (3, 'cara', 2, 1.0),"
        " (4, 'dave', 6, 3.3), (5, 'eve', 4, NULL)");
    ExecuteSql("CREATE TABLE enrollments (student_id INT, course VARCHAR(20))");
    ExecuteSql(
        "INSERT INTO enrollments VALUES (1, 'databases'), (1, 'compilers'), (2, 'databases'), (4, 'networks'),"
        " (9, 'ghosts')");
  }
};

TEST_F(SqlTest, SelectStarWhere) {
  ExpectTableContents(ExecuteSql("SELECT * FROM students WHERE semester = 2"),
                      {{1, std::string{"anna"}, 2, 1.3}, {3, std::string{"cara"}, 2, 1.0}});
}

TEST_F(SqlTest, SelectWithoutFrom) {
  ExpectTableContents(ExecuteSql("SELECT 1 + 2 AS three, 'x'"), {{3, std::string{"x"}}});
}

TEST_F(SqlTest, ProjectionArithmeticAndAliases) {
  const auto result = ExecuteSql("SELECT name, grade * 10 AS decigrade FROM students WHERE id = 2");
  EXPECT_EQ(result->column_names(), (std::vector<std::string>{"name", "decigrade"}));
  ExpectTableContents(result, {{std::string{"bert"}, 27.0}});
}

TEST_F(SqlTest, WhereConjunctionsAndDisjunctions) {
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE semester = 2 AND grade < 1.2"), {{3}});
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE semester = 6 OR grade < 1.2"), {{3}, {4}});
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE NOT (semester = 2)"), {{2}, {4}, {5}});
}

TEST_F(SqlTest, BetweenInLike) {
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE semester BETWEEN 3 AND 5"), {{2}, {5}});
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE id IN (1, 3, 7)"), {{1}, {3}});
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE name LIKE '%a%a%'"), {{1}, {3}});
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE name NOT LIKE '%a%'"), {{2}, {5}});
}

TEST_F(SqlTest, IsNullHandling) {
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE grade IS NULL"), {{5}});
  ExpectTableContents(ExecuteSql("SELECT COUNT(*), COUNT(grade) FROM students"), {{int64_t{5}, int64_t{4}}});
}

TEST_F(SqlTest, OrderByLimit) {
  // NULLs sort as the smallest value (first ASC, last DESC), so eve (grade
  // NULL) comes last under DESC.
  ExpectTableContents(ExecuteSql("SELECT name FROM students ORDER BY grade DESC, name ASC LIMIT 3"),
                      {{std::string{"dave"}}, {std::string{"bert"}}, {std::string{"anna"}}},
                      /*ordered=*/true);
}

TEST_F(SqlTest, GroupByHaving) {
  ExpectTableContents(
      ExecuteSql("SELECT semester, COUNT(*), AVG(grade) FROM students GROUP BY semester HAVING COUNT(*) > 1"),
      {{2, int64_t{2}, 1.15}, {4, int64_t{2}, 2.7}});
}

TEST_F(SqlTest, AggregateOverComputedExpression) {
  ExpectTableContents(ExecuteSql("SELECT SUM(grade * 2) FROM students WHERE semester = 2"), {{4.6}});
}

TEST_F(SqlTest, Distinct) {
  ExpectTableContents(ExecuteSql("SELECT DISTINCT semester FROM students"), {{2}, {4}, {6}});
}

TEST_F(SqlTest, ExplicitJoin) {
  ExpectTableContents(
      ExecuteSql("SELECT s.name, e.course FROM students s JOIN enrollments e ON s.id = e.student_id "
                 "WHERE e.course = 'databases'"),
      {{std::string{"anna"}, std::string{"databases"}}, {std::string{"bert"}, std::string{"databases"}}});
}

TEST_F(SqlTest, CommaJoinWithWhere) {
  const auto result = ExecuteSql(
      "SELECT s.name FROM students s, enrollments e WHERE s.id = e.student_id AND e.course = 'compilers'");
  ExpectTableContents(result, {{std::string{"anna"}}});
}

TEST_F(SqlTest, LeftOuterJoinCountsNulls) {
  ExpectTableContents(ExecuteSql("SELECT s.name, COUNT(e.course) FROM students s "
                                 "LEFT JOIN enrollments e ON s.id = e.student_id GROUP BY s.name"),
                      {{std::string{"anna"}, int64_t{2}},
                       {std::string{"bert"}, int64_t{1}},
                       {std::string{"cara"}, int64_t{0}},
                       {std::string{"dave"}, int64_t{1}},
                       {std::string{"eve"}, int64_t{0}}});
}

TEST_F(SqlTest, UncorrelatedScalarSubquery) {
  ExpectTableContents(ExecuteSql("SELECT id FROM students WHERE grade = (SELECT MIN(grade) FROM students)"), {{3}});
}

TEST_F(SqlTest, InSubquery) {
  ExpectTableContents(
      ExecuteSql("SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments WHERE course = "
                 "'databases')"),
      {{std::string{"anna"}}, {std::string{"bert"}}});
  ExpectTableContents(
      ExecuteSql("SELECT name FROM students WHERE id NOT IN (SELECT student_id FROM enrollments)"),
      {{std::string{"cara"}}, {std::string{"eve"}}});
}

TEST_F(SqlTest, CorrelatedExists) {
  ExpectTableContents(ExecuteSql("SELECT name FROM students s WHERE EXISTS "
                                 "(SELECT * FROM enrollments e WHERE e.student_id = s.id)"),
                      {{std::string{"anna"}}, {std::string{"bert"}}, {std::string{"dave"}}});
  ExpectTableContents(ExecuteSql("SELECT name FROM students s WHERE NOT EXISTS "
                                 "(SELECT * FROM enrollments e WHERE e.student_id = s.id)"),
                      {{std::string{"cara"}}, {std::string{"eve"}}});
}

TEST_F(SqlTest, CorrelatedScalarAggregate) {
  // Students whose grade is better (lower) than the average of their semester.
  ExpectTableContents(ExecuteSql("SELECT name FROM students s1 WHERE grade < "
                                 "(SELECT AVG(grade) FROM students s2 WHERE s2.semester = s1.semester)"),
                      {{std::string{"cara"}}});
}

TEST_F(SqlTest, DerivedTable) {
  ExpectTableContents(ExecuteSql("SELECT top.name FROM (SELECT name, grade FROM students WHERE grade < 2.0) top "
                                 "WHERE top.grade > 1.1"),
                      {{std::string{"anna"}}});
}

TEST_F(SqlTest, CaseExpression) {
  ExpectTableContents(ExecuteSql("SELECT name, CASE WHEN grade < 2.0 THEN 'good' ELSE 'ok' END FROM students "
                                 "WHERE semester = 2"),
                      {{std::string{"anna"}, std::string{"good"}}, {std::string{"cara"}, std::string{"good"}}});
}

TEST_F(SqlTest, SubstringAndConcat) {
  ExpectTableContents(ExecuteSql("SELECT SUBSTRING(name FROM 1 FOR 2) FROM students WHERE id = 1"),
                      {{std::string{"an"}}});
}

TEST_F(SqlTest, CastExpression) {
  ExpectTableContents(ExecuteSql("SELECT CAST(grade AS INT) FROM students WHERE id = 4"), {{3}});
}

TEST_F(SqlTest, InvalidCastsAndDatesFailTheStatementWithADataError) {
  // Each fails with its SQLSTATE, returned, not thrown: a constant CAST while
  // the optimizer folds it, a column CAST or EXTRACT while executing.
  ExecuteSql("INSERT INTO enrollments VALUES (7, 'x7')");
  for (const auto& [sql, sqlstate] : std::vector<std::pair<std::string, std::string>>{
           {"SELECT CAST('abc' AS INT)", "22P02"},
           {"SELECT CAST('1.5x' AS DOUBLE)", "22P02"},
           {"SELECT CAST('99999999999' AS INT)", "22003"},
           {"SELECT CAST(course AS INT) FROM enrollments", "22P02"},
           {"SELECT EXTRACT(YEAR FROM course) FROM enrollments WHERE student_id = 1", "22007"}}) {
    auto pipeline = SqlPipeline::Builder{sql}.Build();
    auto status = SqlPipelineStatus::kSuccess;
    EXPECT_NO_THROW(status = pipeline.Execute()) << sql;
    EXPECT_EQ(status, SqlPipelineStatus::kFailure) << sql;
    EXPECT_EQ(pipeline.sqlstate(), sqlstate) << sql << ": " << pipeline.error_message();
  }
  ExpectTableContents(ExecuteSql("SELECT CAST(' 42 ' AS INT), CAST('+2.5' AS DOUBLE)"), {{42, 2.5}});
}

TEST_F(SqlTest, OutOfRangeNumericLiteralsFailTheStatement) {
  for (const auto* sql : {"SELECT 99999999999999999999", "SELECT 1e999", "SELECT id FROM students LIMIT 99999999999999999999"}) {
    auto pipeline = SqlPipeline::Builder{sql}.Build();
    auto status = SqlPipelineStatus::kSuccess;
    EXPECT_NO_THROW(status = pipeline.Execute()) << sql;
    EXPECT_EQ(status, SqlPipelineStatus::kFailure) << sql;
    EXPECT_NE(pipeline.error_message().find("out of range"), std::string::npos) << pipeline.error_message();
  }
}

TEST_F(SqlTest, ViewsEmbedTheirPlan) {
  ExecuteSql("CREATE VIEW good_students AS SELECT id, name FROM students WHERE grade < 2.0");
  ExpectTableContents(ExecuteSql("SELECT name FROM good_students WHERE id > 1"), {{std::string{"cara"}}});
  ExecuteSql("DROP VIEW good_students");
}

TEST_F(SqlTest, UpdateAndDelete) {
  ExecuteSql("UPDATE students SET grade = 2.0 WHERE id = 4");
  ExpectTableContents(ExecuteSql("SELECT grade FROM students WHERE id = 4"), {{2.0}});
  ExecuteSql("DELETE FROM students WHERE semester = 4");
  ExpectTableContents(ExecuteSql("SELECT COUNT(*) FROM students"), {{int64_t{3}}});
}

TEST_F(SqlTest, ExplicitTransactionRollback) {
  auto pipeline = SqlPipeline::Builder{
      "BEGIN; DELETE FROM students WHERE id = 1; ROLLBACK; SELECT COUNT(*) FROM students"}
                      .Build();
  ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
  ExpectTableContents(pipeline.result_table(), {{int64_t{5}}});
}

TEST_F(SqlTest, ExplicitTransactionCommit) {
  auto pipeline = SqlPipeline::Builder{
      "BEGIN; DELETE FROM students WHERE id = 1; COMMIT; SELECT COUNT(*) FROM students"}
                      .Build();
  ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
  ExpectTableContents(pipeline.result_table(), {{int64_t{4}}});
}

TEST_F(SqlTest, ParseErrorsAreReported) {
  auto pipeline = SqlPipeline::Builder{"SELEC oops"}.Build();
  EXPECT_EQ(pipeline.Execute(), SqlPipelineStatus::kFailure);
  EXPECT_FALSE(pipeline.error_message().empty());
}

TEST_F(SqlTest, UnknownTableAndColumnErrors) {
  auto table_pipeline = SqlPipeline::Builder{"SELECT * FROM nothing"}.Build();
  EXPECT_EQ(table_pipeline.Execute(), SqlPipelineStatus::kFailure);
  EXPECT_NE(table_pipeline.error_message().find("Unknown table"), std::string::npos);

  auto column_pipeline = SqlPipeline::Builder{"SELECT nope FROM students"}.Build();
  EXPECT_EQ(column_pipeline.Execute(), SqlPipelineStatus::kFailure);
  EXPECT_NE(column_pipeline.error_message().find("Unknown column"), std::string::npos);
}

TEST_F(SqlTest, DdlOnExistingOrMissingTableFailsCleanly) {
  // Statement errors, not process aborts (these are reachable over the wire).
  auto duplicate = SqlPipeline::Builder{"CREATE TABLE students (x INT NOT NULL)"}.Build();
  EXPECT_EQ(duplicate.Execute(), SqlPipelineStatus::kFailure);
  EXPECT_NE(duplicate.error_message().find("already exists"), std::string::npos);

  auto missing = SqlPipeline::Builder{"DROP TABLE nothing"}.Build();
  EXPECT_EQ(missing.Execute(), SqlPipelineStatus::kFailure);
  EXPECT_NE(missing.error_message().find("does not exist"), std::string::npos);

  // IF NOT EXISTS / IF EXISTS stay no-ops.
  auto tolerant = SqlPipeline::Builder{"CREATE TABLE IF NOT EXISTS students (x INT NOT NULL); "
                                       "DROP TABLE IF EXISTS nothing; SELECT COUNT(*) FROM students"}
                      .Build();
  ASSERT_EQ(tolerant.Execute(), SqlPipelineStatus::kSuccess) << tolerant.error_message();
  ExpectTableContents(tolerant.result_table(), {{int64_t{5}}});
}

TEST_F(SqlTest, PqpCacheHitSkipsPlanning) {
  const auto cache = std::make_shared<PqpCache>(16);
  const auto* query = "SELECT id FROM students WHERE semester = 2";
  auto first = SqlPipeline::Builder{query}.WithPqpCache(cache).Build();
  ASSERT_EQ(first.Execute(), SqlPipelineStatus::kSuccess);
  EXPECT_FALSE(first.metrics().pqp_cache_hit);

  auto second = SqlPipeline::Builder{query}.WithPqpCache(cache).Build();
  ASSERT_EQ(second.Execute(), SqlPipelineStatus::kSuccess);
  EXPECT_TRUE(second.metrics().pqp_cache_hit);
  ExpectTableContents(second.result_table(), {{1}, {3}});
  EXPECT_EQ(cache->hit_count(), 1u);
}

/// A cached plan is deep-copied per execution and re-bound to the statement's
/// transaction: committed DML must show up, another transaction's uncommitted
/// insert must not until it commits. The plan stays cached throughout.
TEST_F(SqlTest, CachedPlanSeesCommittedWritesAndMvccVisibility) {
  const auto cache = std::make_shared<PqpCache>(16);
  const auto* query = "SELECT SUM(grade), COUNT(*), COUNT(grade) FROM students WHERE semester >= 2";
  const auto run_cached = [&](std::vector<std::vector<AllTypeVariant>> expected) {
    auto pipeline = SqlPipeline::Builder{query}.WithPqpCache(cache).Build();
    ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
    EXPECT_TRUE(pipeline.metrics().pqp_cache_hit);
    ExpectTableContents(pipeline.result_table(), std::move(expected));
  };

  // Hot entry: inserted by the first execution, served from the cache after.
  auto cold = SqlPipeline::Builder{query}.WithPqpCache(cache).Build();
  ASSERT_EQ(cold.Execute(), SqlPipelineStatus::kSuccess) << cold.error_message();
  EXPECT_FALSE(cold.metrics().pqp_cache_hit);
  for (auto repetition = 0; repetition < 3; ++repetition) {
    run_cached({{8.3, int64_t{5}, int64_t{4}}});
  }

  ExecuteSql("DELETE FROM students WHERE id = 4");
  ExecuteSql("INSERT INTO students VALUES (6, 'finn', 5, 4.0), (7, 'gina', 2, NULL)");
  run_cached({{9.0, int64_t{6}, int64_t{4}}});

  auto other = Hyrise::Get().transaction_manager.NewTransactionContext();
  auto insert = SqlPipeline::Builder{"INSERT INTO students VALUES (8, 'hank', 2, 100.0)"}
                    .WithTransactionContext(other)
                    .Build();
  ASSERT_EQ(insert.Execute(), SqlPipelineStatus::kSuccess) << insert.error_message();
  run_cached({{9.0, int64_t{6}, int64_t{4}}});

  other->Commit();
  run_cached({{109.0, int64_t{7}, int64_t{5}}});
  EXPECT_EQ(cache->hit_count(), 6u);
}

/// A hot cached aggregate plan must not serve a dropped and recreated table of
/// the same name: the first run after the schema change re-plans, agrees with
/// an uncached execution, and the re-planned entry is cached and agrees again.
TEST_F(SqlTest, CachedPlanIsReplannedAfterSchemaChange) {
  const auto cache = std::make_shared<PqpCache>(16);
  const auto* query = "SELECT SUM(grade), COUNT(*) FROM students";
  const auto run_cached = [&](bool expect_hit, std::vector<std::vector<AllTypeVariant>> expected) {
    auto pipeline = SqlPipeline::Builder{query}.WithPqpCache(cache).Build();
    ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
    EXPECT_EQ(pipeline.metrics().pqp_cache_hit, expect_hit);
    ExpectTableContents(pipeline.result_table(), std::move(expected));
  };

  run_cached(false, {{8.3, int64_t{5}}});
  run_cached(true, {{8.3, int64_t{5}}});

  ExecuteSql("DROP TABLE students");
  ExecuteSql("CREATE TABLE students (id INT NOT NULL, semester INT, grade DOUBLE)");
  ExecuteSql("INSERT INTO students VALUES (1, 1, 10.0), (2, 2, 20.0), (3, 3, NULL)");

  const auto uncached = ExecuteSql(query);
  ExpectTableContents(uncached, {{30.0, int64_t{3}}});
  run_cached(false, uncached->GetRows());
  run_cached(true, uncached->GetRows());
}

TEST_F(SqlTest, SchedulerExecutionMatchesInline) {
  auto pipeline = SqlPipeline::Builder{"SELECT semester, COUNT(*) FROM students GROUP BY semester"}
                      .UseScheduler(true)
                      .Build();
  ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
  ExpectTableContents(pipeline.result_table(), {{2, int64_t{2}}, {4, int64_t{2}}, {6, int64_t{1}}});
}

/// Property: the optimizer must not change results — "at the end of every
/// rule stands a valid LQP" (paper §2.6).
TEST_F(SqlTest, OptimizerOnOffEquivalence) {
  const auto queries = std::vector<std::string>{
      "SELECT s.name, e.course FROM students s, enrollments e WHERE s.id = e.student_id AND s.grade < 3.0",
      "SELECT semester, MIN(grade) FROM students GROUP BY semester ORDER BY semester",
      "SELECT name FROM students s WHERE EXISTS (SELECT * FROM enrollments e WHERE e.student_id = s.id "
      "AND e.course LIKE '%bases')",
      "SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments) AND grade < 3.0",
      "SELECT name FROM students s1 WHERE grade <= (SELECT MIN(grade) FROM students s2 "
      "WHERE s2.semester = s1.semester)",
  };
  for (const auto& query : queries) {
    auto optimized = SqlPipeline::Builder{query}.Build();
    ASSERT_EQ(optimized.Execute(), SqlPipelineStatus::kSuccess) << query << ": " << optimized.error_message();
    auto unoptimized = SqlPipeline::Builder{query}.DisableOptimizer().Build();
    ASSERT_EQ(unoptimized.Execute(), SqlPipelineStatus::kSuccess) << query << ": " << unoptimized.error_message();
    ExpectTableContents(optimized.result_table(), unoptimized.result_table()->GetRows());
  }
}

TEST_F(SqlTest, PreparedStatementParameters) {
  // '?' placeholders bound by ordinal (paper §2.6).
  auto pipeline = SqlPipeline::Builder{"SELECT name FROM students WHERE semester = ? AND grade < ?"}
                      .WithParameters({AllTypeVariant{2}, AllTypeVariant{1.2}})
                      .Build();
  ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
  ExpectTableContents(pipeline.result_table(), {{std::string{"cara"}}});
}

TEST_F(SqlTest, PreparedParametersCombineWithCachedPlans) {
  const auto cache = std::make_shared<PqpCache>(8);
  const auto* query = "SELECT COUNT(*) FROM students WHERE semester = ?";
  for (const auto semester : {2, 4, 6, 2}) {
    auto pipeline = SqlPipeline::Builder{query}
                        .WithPqpCache(cache)
                        .WithParameters({AllTypeVariant{semester}})
                        .Build();
    ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
    const auto expected = semester == 6 ? int64_t{1} : int64_t{2};
    ExpectTableContents(pipeline.result_table(), {{expected}});
  }
  EXPECT_EQ(cache->hit_count(), 3u) << "the uninstantiated plan is reused with fresh parameters";
}

TEST_F(SqlTest, ParametersMixWithCorrelatedSubqueries) {
  auto pipeline = SqlPipeline::Builder{
      "SELECT name FROM students s WHERE semester = ? AND EXISTS "
      "(SELECT * FROM enrollments e WHERE e.student_id = s.id)"}
                      .WithParameters({AllTypeVariant{4}})
                      .Build();
  ASSERT_EQ(pipeline.Execute(), SqlPipelineStatus::kSuccess) << pipeline.error_message();
  ExpectTableContents(pipeline.result_table(), {{std::string{"bert"}}});
}

}  // namespace hyrise

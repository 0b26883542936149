#include <gtest/gtest.h>

#include "sql/sql_lexer.hpp"
#include "sql/sql_parser.hpp"

namespace hyrise::sql {

TEST(SqlLexerTest, TokenKinds) {
  auto tokens = std::vector<Token>{};
  auto error = std::string{};
  ASSERT_TRUE(Tokenize("SELECT a_1, 'it''s', 1.5e2, 42 FROM \"Weird Name\" WHERE x <> 3 -- comment\n;", tokens,
                       error));
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].value, "SELECT");
  EXPECT_EQ(tokens[1].value, "a_1");
  EXPECT_EQ(tokens[3].type, TokenType::kString);
  EXPECT_EQ(tokens[3].value, "it's");
  EXPECT_EQ(tokens[5].type, TokenType::kFloat);
  EXPECT_EQ(tokens[7].type, TokenType::kInteger);
  EXPECT_EQ(tokens[9].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[9].value, "Weird Name");
  // Identifiers fold to lower case, keywords to upper case.
  auto folded = std::vector<Token>{};
  ASSERT_TRUE(Tokenize("SeLeCt FooBar", folded, error));
  EXPECT_EQ(folded[0].value, "SELECT");
  EXPECT_EQ(folded[1].value, "foobar");
}

TEST(SqlLexerTest, ErrorsOnUnterminatedString) {
  auto tokens = std::vector<Token>{};
  auto error = std::string{};
  EXPECT_FALSE(Tokenize("SELECT 'oops", tokens, error));
  EXPECT_NE(error.find("Unterminated"), std::string::npos);
}

TEST(SqlParserTest, SelectClausesRoundTrip) {
  auto result = ParseSql(
      "SELECT a, SUM(b * 2) AS total FROM t1 JOIN t2 ON t1.id = t2.id WHERE a > 5 AND b IN (1, 2, 3) "
      "GROUP BY a HAVING SUM(b) > 10 ORDER BY total DESC LIMIT 7");
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& select = *result.value().at(0)->select;
  EXPECT_EQ(select.select_list.size(), 2u);
  EXPECT_EQ(select.select_list[1]->alias, "total");
  ASSERT_EQ(select.from.size(), 1u);
  EXPECT_EQ(select.from[0]->kind, TableRef::Kind::kJoin);
  ASSERT_TRUE(select.where);
  EXPECT_EQ(select.group_by.size(), 1u);
  ASSERT_TRUE(select.having);
  EXPECT_EQ(select.order_by.size(), 1u);
  EXPECT_FALSE(select.order_by[0].ascending);
  EXPECT_EQ(select.limit, uint64_t{7});
}

TEST(SqlParserTest, OperatorPrecedence) {
  // a + b * c < d OR e: * binds over +, comparison over OR.
  auto result = ParseSql("SELECT * FROM t WHERE a + b * c < d OR e = 1");
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& where = *result.value().at(0)->select->where;
  EXPECT_EQ(where.op, "OR");
  const auto& comparison = *where.children[0];
  EXPECT_EQ(comparison.op, "<");
  const auto& addition = *comparison.children[0];
  EXPECT_EQ(addition.op, "+");
  EXPECT_EQ(addition.children[1]->op, "*");
}

TEST(SqlParserTest, NegatedPredicates) {
  auto result = ParseSql(
      "SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2 AND b NOT LIKE 'x%' AND c IS NOT NULL AND "
      "d NOT IN (SELECT e FROM u) AND NOT EXISTS (SELECT * FROM v)");
  ASSERT_TRUE(result.ok()) << result.error();
}

TEST(SqlParserTest, SubqueriesEverywhere) {
  auto result = ParseSql(
      "SELECT (SELECT MAX(x) FROM u) FROM (SELECT a AS x FROM t) sub WHERE x > (SELECT AVG(x) FROM u)");
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& select = *result.value().at(0)->select;
  EXPECT_EQ(select.select_list[0]->type, AstExprType::kSubquery);
  EXPECT_EQ(select.from[0]->kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(select.from[0]->alias, "sub");
}

TEST(SqlParserTest, CaseSubstringExtractCast) {
  auto result = ParseSql(
      "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END, SUBSTRING(s FROM 1 FOR 2), "
      "EXTRACT(YEAR FROM d), CAST(a AS DOUBLE) FROM t");
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& list = result.value().at(0)->select->select_list;
  EXPECT_EQ(list[0]->type, AstExprType::kCase);
  EXPECT_TRUE(list[0]->has_else);
  EXPECT_EQ(list[1]->type, AstExprType::kFunctionCall);
  EXPECT_EQ(list[1]->children.size(), 3u);
  EXPECT_EQ(list[2]->function_name, "extract_year");
  EXPECT_EQ(list[3]->type, AstExprType::kCast);
  EXPECT_EQ(list[3]->cast_type, DataType::kDouble);
}

TEST(SqlParserTest, DmlAndDdl) {
  auto result = ParseSql(
      "CREATE TABLE t (a INT NOT NULL, b DECIMAL(15, 2), c VARCHAR(25));"
      "INSERT INTO t (a, c) VALUES (1, 'x'), (2, 'y');"
      "UPDATE t SET b = b + 1 WHERE a = 1;"
      "DELETE FROM t WHERE a = 2;"
      "DROP TABLE IF EXISTS t");
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& statements = result.value();
  ASSERT_EQ(statements.size(), 5u);
  EXPECT_EQ(statements[0]->kind, StatementKind::kCreateTable);
  EXPECT_EQ(statements[0]->column_definitions.size(), 3u);
  EXPECT_FALSE(statements[0]->column_definitions[0].nullable);
  EXPECT_EQ(statements[0]->column_definitions[1].data_type, DataType::kDouble);
  EXPECT_EQ(statements[1]->insert_values.size(), 2u);
  EXPECT_EQ(statements[1]->column_names.size(), 2u);
  EXPECT_EQ(statements[2]->assignments.size(), 1u);
  EXPECT_TRUE(statements[4]->if_exists);
}

TEST(SqlParserTest, ParameterPlaceholders) {
  auto result = ParseSql("SELECT * FROM t WHERE a = ? AND b < ?");
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& where = *result.value().at(0)->select->where;
  EXPECT_EQ(where.children[0]->children[1]->parameter_ordinal, 0);
  EXPECT_EQ(where.children[1]->children[1]->parameter_ordinal, 1);
}

TEST(SqlParserTest, PositionalParameterOrdinalRange) {
  auto result = ParseSql("SELECT * FROM t WHERE a = $2 AND b < $1");
  ASSERT_TRUE(result.ok()) << result.error();
  const auto& where = *result.value().at(0)->select->where;
  EXPECT_EQ(where.children[0]->children[1]->parameter_ordinal, 1);
  EXPECT_EQ(where.children[1]->children[1]->parameter_ordinal, 0);

  // Out-of-range ordinals — including ones that overflow int — are clean
  // parse errors, never undefined behavior.
  for (const auto* query : {"SELECT $0", "SELECT $65536", "SELECT $99999999999999999999"}) {
    const auto rejected = ParseSql(query);
    ASSERT_FALSE(rejected.ok()) << query;
    EXPECT_NE(rejected.error().find("parameter number out of range"), std::string::npos) << rejected.error();
  }
}

TEST(SqlParserTest, ReportsErrorsWithLocation) {
  const auto result = ParseSql("SELECT FROM");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("Parse error"), std::string::npos);

  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a NOT 5").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO VALUES (1)").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t GROUP a").ok());
}

TEST(SqlParserTest, NumericLiteralsOutOfRangeAreErrors) {
  // Past int64, past double (overflow and underflow), past LIMIT's uint64:
  // each is an error result naming the literal.
  for (const auto* literal : {"99999999999999999999", "1e999", "1e-999"}) {
    const auto result = ParseSql(std::string{"SELECT "} + literal);
    ASSERT_FALSE(result.ok()) << literal;
    EXPECT_NE(result.error().find(std::string{"out of range: "} + literal), std::string::npos) << result.error();
  }
  EXPECT_FALSE(ParseSql("SELECT a FROM t LIMIT 99999999999999999999").ok());
  EXPECT_FALSE(ParseSql("SELECT 1.2.3").ok());

  // The largest values still parse, as long and double.
  const auto result = ParseSql("SELECT 9223372036854775807, 1e308");
  ASSERT_TRUE(result.ok()) << result.error();
}

}  // namespace hyrise::sql

#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "hyrise.hpp"
#include "server/pg_client.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"
#include "utils/gdfs_cache.hpp"

namespace hyrise {

using testing::PgClient;

namespace {

constexpr auto DataRows = &PgClient::DataRows;
constexpr auto StatValue = &PgClient::StatValue;

}  // namespace

class ExtendedProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    Hyrise::Get().default_pqp_cache = std::make_shared<PqpCache>();
    // min_rebuild_ns = 0: admit even trivially cheap results so the cache-hit
    // assertions below are deterministic on a 2-row table.
    auto result_cache_config = ResultCacheConfig{};
    result_cache_config.min_rebuild_ns = 0;
    Hyrise::Get().default_result_cache = std::make_shared<ResultCache>(result_cache_config);
    ExecuteSql(
        "CREATE TABLE typed (i INT NOT NULL, l LONG NOT NULL, f FLOAT NOT NULL, d DOUBLE NOT NULL, "
        "s VARCHAR(32))");
    ExecuteSql("INSERT INTO typed VALUES (1, 10000000000, 1.5, 2.25, 'one'), (2, -7, 0.5, -1.0, NULL)");
    server_ = std::make_unique<Server>(uint16_t{0});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
  }

  std::unique_ptr<Server> server_;
};

// --- Type round-trips over Parse/Bind/Execute --------------------------------

TEST_F(ExtendedProtocolTest, TypedParametersRoundTrip) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  // OIDs: 23 = int4, 20 = int8, 701 = float8, 25 = text.
  const auto messages = client.ExtendedQuery(
      "SELECT i, l, d, s FROM typed WHERE i = $1 AND l = $2 AND d > $3 AND s = $4",
      {std::string{"1"}, std::string{"10000000000"}, std::string{"2.0"}, std::string{"one"}}, {23, 20, 701, 25});
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ((*messages)[0].type, '1') << "ParseComplete";
  ASSERT_EQ((*messages)[1].type, '2') << "BindComplete";
  const auto rows = DataRows(*messages);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "1");
  EXPECT_EQ(rows[0][1], "10000000000");
  EXPECT_EQ(rows[0][3], "one");
}

TEST_F(ExtendedProtocolTest, UntypedParametersAreInferredFromText) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  // No OIDs in Parse: the server infers int/double/string from the text form.
  const auto messages =
      client.ExtendedQuery("SELECT i FROM typed WHERE i = $1 AND d < $2", {std::string{"2"}, std::string{"0.0"}});
  ASSERT_TRUE(messages.has_value());
  const auto rows = DataRows(*messages);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "2");
}

TEST_F(ExtendedProtocolTest, NullParameterBindsSqlNull) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  // s = NULL never matches (SQL three-valued logic): zero rows, no error.
  const auto messages = client.ExtendedQuery("SELECT i FROM typed WHERE s = $1", {std::nullopt}, {25});
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ(DataRows(*messages).size(), 0u);
  const auto* complete = PgClient::FindType(*messages, 'C');
  ASSERT_NE(complete, nullptr);
  EXPECT_NE(complete->payload.find("SELECT 0"), std::string::npos);
}

TEST_F(ExtendedProtocolTest, MixedQuestionMarkAndDollarPlaceholders) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  // '?' takes the next implicit ordinal; '$n' names its own. Both spellings in
  // one statement must agree on the parameter count.
  const auto messages =
      client.ExtendedQuery("SELECT i FROM typed WHERE i = ? OR i = $2", {std::string{"1"}, std::string{"2"}});
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ(DataRows(*messages).size(), 2u);
}

// --- Named statements, portals, Describe, Close ------------------------------

TEST_F(ExtendedProtocolTest, NamedStatementRebindAndDescribe) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  ASSERT_TRUE(client.SendParse("lookup", "SELECT s FROM typed WHERE i = $1", {23}));
  ASSERT_TRUE(client.SendDescribe('S', "lookup"));
  ASSERT_TRUE(client.SendBind("", "lookup", {std::string{"1"}}));
  ASSERT_TRUE(client.SendExecute(""));
  ASSERT_TRUE(client.SendSync());
  auto messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  // Parse -> '1', Describe(statement) -> 't' (ParameterDescription) + 'n'
  // (NoData: row shape is only known at Execute), Bind -> '2'.
  ASSERT_GE(messages->size(), 5u);
  EXPECT_EQ((*messages)[0].type, '1');
  EXPECT_EQ((*messages)[1].type, 't');
  EXPECT_EQ((*messages)[2].type, 'n');
  EXPECT_EQ((*messages)[3].type, '2');
  auto rows = DataRows(*messages);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "one");

  // Rebind the same named statement with a different parameter.
  ASSERT_TRUE(client.SendBind("", "lookup", {std::string{"2"}}));
  ASSERT_TRUE(client.SendExecute(""));
  ASSERT_TRUE(client.SendSync());
  messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  rows = DataRows(*messages);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], std::nullopt) << "row 2 has a NULL s";

  // Close the statement; closing again is not an error (PostgreSQL semantics).
  ASSERT_TRUE(client.SendClose('S', "lookup"));
  ASSERT_TRUE(client.SendSync());
  messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ((*messages)[0].type, '3') << "CloseComplete";

  // After Close, binding the name fails with 26000 (invalid_sql_statement_name).
  ASSERT_TRUE(client.SendBind("", "lookup", {std::string{"1"}}));
  ASSERT_TRUE(client.SendSync());
  messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ((*messages)[0].type, 'E');
  EXPECT_NE((*messages)[0].payload.find("26000"), std::string::npos);
}

// --- Plan and result caches across rebinds -----------------------------------

TEST_F(ExtendedProtocolTest, RebindHitsPlanCacheAndRepeatHitsResultCache) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  const auto baseline = client.Query("SHOW SERVER STATS");
  ASSERT_TRUE(baseline.has_value());
  const auto pqp_before = StatValue(*baseline, "pqp_cache_hits");
  const auto result_before = StatValue(*baseline, "result_cache_hits");
  ASSERT_TRUE(pqp_before.has_value());
  ASSERT_TRUE(result_before.has_value());

  ASSERT_TRUE(client.SendParse("hot", "SELECT i, s FROM typed WHERE i = $1", {23}));
  ASSERT_TRUE(client.SendSync());
  ASSERT_TRUE(client.ReadUntilReady().has_value());

  // Three executions: first compiles the plan, the second (different value)
  // must reuse it, the third (same value as the second) can reuse the cached
  // result as well.
  for (const auto* value : {"1", "2", "2"}) {
    ASSERT_TRUE(client.SendBind("", "hot", {std::string{value}}));
    ASSERT_TRUE(client.SendExecute(""));
    ASSERT_TRUE(client.SendSync());
    const auto messages = client.ReadUntilReady();
    ASSERT_TRUE(messages.has_value());
    ASSERT_EQ(DataRows(*messages).size(), 1u);
  }

  const auto after = client.Query("SHOW SERVER STATS");
  ASSERT_TRUE(after.has_value());
  const auto pqp_after = StatValue(*after, "pqp_cache_hits");
  const auto result_after = StatValue(*after, "result_cache_hits");
  ASSERT_TRUE(pqp_after.has_value());
  ASSERT_TRUE(result_after.has_value());
  EXPECT_GE(*pqp_after - *pqp_before, 2) << "rebinds of a named statement must reuse the cached plan";
  EXPECT_GE(*result_after - *result_before, 1) << "identical rebind must reuse the cached result";

  const auto executions = StatValue(*after, "prepared_executions");
  ASSERT_TRUE(executions.has_value());
  EXPECT_GE(*executions, 3);
}

// --- DML through the extended protocol ---------------------------------------

TEST_F(ExtendedProtocolTest, PreparedInsertIsTransactional) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  ASSERT_TRUE(client.Query("BEGIN").has_value());
  const auto insert = client.ExtendedQuery("INSERT INTO typed VALUES ($1, $2, $3, $4, $5)",
                                           {std::string{"3"}, std::string{"3"}, std::string{"3.0"},
                                            std::string{"3.0"}, std::string{"three"}},
                                           {23, 20, 700, 701, 25});
  ASSERT_TRUE(insert.has_value());
  ASSERT_EQ(PgClient::FindType(*insert, 'E'), nullptr) << "prepared insert succeeds";
  ASSERT_TRUE(client.Query("ROLLBACK").has_value());

  const auto count = client.Query("SELECT COUNT(*) FROM typed");
  ASSERT_TRUE(count.has_value());
  const auto rows = DataRows(*count);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "2") << "rollback undid the prepared insert";
}

// --- Error paths and skip-until-sync recovery --------------------------------

TEST_F(ExtendedProtocolTest, ParseErrorSkipsUntilSyncThenRecovers) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  // A batch where Parse fails: Bind and Execute after the error must be
  // skipped (no BindComplete, no second error), and Sync restores the session.
  ASSERT_TRUE(client.SendParse("", "SELECT FROM FROM", {}));
  ASSERT_TRUE(client.SendBind("", "", {}));
  ASSERT_TRUE(client.SendExecute(""));
  ASSERT_TRUE(client.SendSync());
  const auto messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 2u) << "exactly one error, then ReadyForQuery";
  EXPECT_EQ((*messages)[0].type, 'E');
  EXPECT_NE((*messages)[0].payload.find("42601"), std::string::npos);
  EXPECT_EQ((*messages)[1].type, 'Z');

  // The session is usable again.
  const auto next = client.ExtendedQuery("SELECT 1 + 1");
  ASSERT_TRUE(next.has_value());
  ASSERT_EQ(DataRows(*next).size(), 1u);
}

TEST_F(ExtendedProtocolTest, OutOfRangeLiteralFailsParseNotTheServer) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  ASSERT_TRUE(client.SendParse("", "SELECT 99999999999999999999", {}));
  ASSERT_TRUE(client.SendSync());
  const auto messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 2u) << "one error, then ReadyForQuery";
  EXPECT_EQ((*messages)[0].type, 'E');
  EXPECT_NE((*messages)[0].payload.find("out of range: 99999999999999999999"), std::string::npos)
      << (*messages)[0].payload;
  EXPECT_EQ((*messages)[0].payload.find("Internal error"), std::string::npos) << (*messages)[0].payload;

  const auto next = client.ExtendedQuery("SELECT 1 + 1");
  ASSERT_TRUE(next.has_value());
  ASSERT_EQ(DataRows(*next).size(), 1u);
}

TEST_F(ExtendedProtocolTest, BadParameterTextAndUnknownPortalAreReported) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  // Unparseable int4 text -> 22P02 (invalid_text_representation).
  auto messages = client.ExtendedQuery("SELECT i FROM typed WHERE i = $1", {std::string{"not-a-number"}}, {23});
  ASSERT_TRUE(messages.has_value());
  const auto* error = PgClient::FindType(*messages, 'E');
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->payload.find("22P02"), std::string::npos);

  // Executing a portal that was never bound -> 26000.
  ASSERT_TRUE(client.SendExecute("ghost"));
  ASSERT_TRUE(client.SendSync());
  messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ((*messages)[0].type, 'E');
  EXPECT_NE((*messages)[0].payload.find("26000"), std::string::npos);
}

TEST_F(ExtendedProtocolTest, BinaryFormatCodesAreRejectedNotFatal) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  // Hand-built Bind with one binary (1) parameter format code: the server
  // only speaks text and must answer 0A000 (feature_not_supported).
  ASSERT_TRUE(client.SendParse("", "SELECT i FROM typed WHERE i = $1", {23}));
  auto payload = std::string{};
  payload.push_back('\0');  // Unnamed portal.
  payload.push_back('\0');  // Unnamed statement.
  const auto one16 = htons(1);
  const auto binary16 = htons(1);
  payload.append(reinterpret_cast<const char*>(&one16), 2);     // 1 format code...
  payload.append(reinterpret_cast<const char*>(&binary16), 2);  // ...which is binary.
  payload.append(reinterpret_cast<const char*>(&one16), 2);     // 1 parameter.
  const auto length32 = htonl(1);
  payload.append(reinterpret_cast<const char*>(&length32), 4);
  payload.push_back('1');
  const auto zero16 = htons(0);
  payload.append(reinterpret_cast<const char*>(&zero16), 2);  // 0 result format codes.
  auto message = std::string{"B"};
  const auto frame_length = htonl(static_cast<uint32_t>(payload.size() + 4));
  message.append(reinterpret_cast<const char*>(&frame_length), 4);
  message += payload;
  ASSERT_TRUE(client.SendRaw(message));
  ASSERT_TRUE(client.SendSync());
  const auto messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  const auto* error = PgClient::FindType(*messages, 'E');
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->payload.find("0A000"), std::string::npos);

  // Still alive afterwards.
  EXPECT_TRUE(client.Query("SELECT 1").has_value());
}

}  // namespace hyrise

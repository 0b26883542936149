#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "hyrise.hpp"
#include "server/pg_client.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"
#include "storage/table.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise {

using testing::PgClient;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    ExecuteSql("CREATE TABLE t (a INT NOT NULL, b VARCHAR(10))");
    ExecuteSql("INSERT INTO t VALUES (1, 'x'), (2, NULL)");
    server_ = std::make_unique<Server>(uint16_t{0});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    FailureInjection::DisarmAll();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, StartupHandshake) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendStartup());
  const auto messages = client.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  ASSERT_GE(messages->size(), 3u);
  EXPECT_EQ((*messages)[0].type, 'R') << "AuthenticationOk";
  EXPECT_EQ((*messages)[1].type, 'S') << "ParameterStatus";
  EXPECT_EQ(messages->back().type, 'Z') << "ReadyForQuery";
}

TEST_F(ServerTest, SimpleQueryReturnsRows) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  const auto messages = client.Query("SELECT a, b FROM t ORDER BY a");
  ASSERT_TRUE(messages.has_value());
  ASSERT_GE(messages->size(), 5u);
  EXPECT_EQ((*messages)[0].type, 'T') << "RowDescription";
  EXPECT_NE((*messages)[0].payload.find("a"), std::string::npos);
  EXPECT_EQ((*messages)[1].type, 'D');
  EXPECT_NE((*messages)[1].payload.find("x"), std::string::npos);
  EXPECT_EQ((*messages)[2].type, 'D');
  EXPECT_EQ((*messages)[3].type, 'C') << "CommandComplete";
  EXPECT_NE((*messages)[3].payload.find("SELECT 2"), std::string::npos);
}

TEST_F(ServerTest, NullCellsUseNegativeLength) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());
  const auto messages = client.Query("SELECT b FROM t WHERE a = 2");
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ((*messages)[1].type, 'D');
  // Payload: int16 field count (1), int32 length == -1.
  ASSERT_GE((*messages)[1].payload.size(), 6u);
  uint32_t network;
  std::memcpy(&network, (*messages)[1].payload.data() + 2, 4);
  EXPECT_EQ(static_cast<int32_t>(ntohl(network)), -1);
}

TEST_F(ServerTest, ErrorsAreReportedAndSessionContinues) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  auto messages = client.Query("SELECT FROM nope");
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ((*messages)[0].type, 'E');

  messages = client.Query("SELECT 41 + 1");
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ((*messages)[0].type, 'T');
  EXPECT_NE((*messages)[1].payload.find("42"), std::string::npos);
}

TEST_F(ServerTest, DmlAndTransactionsAcrossMessages) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  ASSERT_TRUE(client.Query("BEGIN").has_value());
  ASSERT_TRUE(client.Query("INSERT INTO t VALUES (3, 'y')").has_value());
  ASSERT_TRUE(client.Query("ROLLBACK").has_value());
  const auto messages = client.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(messages.has_value());
  EXPECT_NE((*messages)[1].payload.find("2"), std::string::npos) << "rollback undid the insert";
}

TEST_F(ServerTest, StringAgainstIntColumnFailsTheStatementNotTheConnection) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());
  const auto expect_connection_answers = [&] {
    const auto answer = client.Query("SELECT 1");
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(PgClient::FindType(*answer, 'E'), nullptr);
    EXPECT_EQ(PgClient::DataRows(*answer).size(), 1u);
  };

  // SQLSTATE 42883 (undefined_function): no operator compares a string with
  // a number.
  const auto expect_type_mismatch = [](const std::optional<std::vector<PgClient::WireMessage>>& messages,
                                       const std::string& sql) {
    ASSERT_TRUE(messages.has_value()) << sql;
    const auto* error = PgClient::FindType(*messages, 'E');
    ASSERT_NE(error, nullptr) << sql;
    EXPECT_NE(error->payload.find("C42883"), std::string::npos) << sql << ": " << error->payload;
  };

  for (const auto* sql : {"SELECT a FROM t WHERE a = '10'", "SELECT a FROM t WHERE a IN ('x', 'y')",
                          "SELECT a FROM t WHERE a = b",
                          // Join predicates: a secondary `<` and `=` beside an
                          // equi-join key, and a nested-loop primary `<`.
                          "SELECT * FROM t t1 JOIN t t2 ON t1.a = t2.a AND t1.a < t2.b",
                          "SELECT * FROM t t1 JOIN t t2 ON t1.a = t2.a AND t1.a = t2.b",
                          "SELECT * FROM t t1 JOIN t t2 ON t1.a < t2.b",
                          // Typed while planning, before any operator runs.
                          "SELECT 1 + 'a'"}) {
    expect_type_mismatch(client.Query(sql), sql);
    expect_connection_answers();
  }

  // A failed CAST is a data error (22P02), no type mismatch; out-of-range
  // literals fail the statement. None is an internal error.
  for (const auto& [sql, code] : std::vector<std::pair<std::string, std::string>>{
           {"SELECT CAST('abc' AS INT)", "C22P02"},
           {"SELECT 99999999999999999999", "out of range"},
           {"SELECT 1e999", "out of range"}}) {
    const auto messages = client.Query(sql);
    ASSERT_TRUE(messages.has_value()) << sql;
    const auto* error = PgClient::FindType(*messages, 'E');
    ASSERT_NE(error, nullptr) << sql;
    EXPECT_NE(error->payload.find(code), std::string::npos) << sql << ": " << error->payload;
    EXPECT_EQ(error->payload.find("Internal error"), std::string::npos) << sql << ": " << error->payload;
    expect_connection_answers();
  }

  // An untyped $1 whose text is no number is bound as a string.
  expect_type_mismatch(client.ExtendedQuery("SELECT a FROM t WHERE a = $1", {std::string{"abc"}}), "$1 = 'abc'");
  expect_connection_answers();
}

TEST_F(ServerTest, StringIntoIntColumnInsertIsADataErrorAndWritesNothing) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());
  const auto expect_count = [&](const std::string& count) {
    const auto answer = client.Query("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(answer.has_value());
    const auto rows = PgClient::DataRows(*answer);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0], count);
  };

  // Text that is no integer, trailing junk included, is 22P02
  // (invalid_text_representation), as in CAST; a multi-row INSERT whose
  // second row fails writes neither row.
  for (const auto* sql : {"INSERT INTO t VALUES ('abc', 'z')", "INSERT INTO t VALUES ('12abc', 'z')",
                          "INSERT INTO t VALUES (5, 'ok'), ('x', 'bad')"}) {
    const auto messages = client.Query(sql);
    ASSERT_TRUE(messages.has_value()) << sql;
    const auto* error = PgClient::FindType(*messages, 'E');
    ASSERT_NE(error, nullptr) << sql;
    EXPECT_NE(error->payload.find("C22P02"), std::string::npos) << sql << ": " << error->payload;
    EXPECT_EQ(error->payload.find("Internal error"), std::string::npos) << sql << ": " << error->payload;
    expect_count("2");
  }

  // A string that is an integer, blanks around it allowed, is one.
  const auto messages = client.Query("INSERT INTO t VALUES (' 12 ', 'z')");
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ(PgClient::FindType(*messages, 'E'), nullptr);
  const auto answer = client.Query("SELECT b FROM t WHERE a = 12");
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(PgClient::DataRows(*answer).size(), 1u);
  expect_count("3");
}

TEST_F(ServerTest, ReadyForQueryReportsTransactionBlock) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());

  auto messages = client.Query("BEGIN");
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ(messages->back().payload, "T") << "inside a transaction block";
  messages = client.Query("COMMIT");
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ(messages->back().payload, "I") << "idle again";
}

// --- Satellite (a): startup failures are returned, not fatal -----------------

TEST(ServerStartupTest, BindFailureIsReturnedAndRetryOnFreePortWorks) {
  Hyrise::Reset();
  auto first = Server{uint16_t{0}};
  const auto first_port = first.Start();
  ASSERT_TRUE(first_port.ok());

  // Same explicit port again: bind must fail with an error Result — no abort.
  auto second = Server{first_port.value()};
  const auto second_result = second.Start();
  ASSERT_FALSE(second_result.ok());
  EXPECT_NE(second_result.error().find("bind"), std::string::npos);

  // The documented recovery: retry on a free port.
  auto third = Server{uint16_t{0}};
  const auto third_result = third.Start();
  ASSERT_TRUE(third_result.ok());
  EXPECT_NE(third_result.value(), first_port.value());
}

// --- Per-connection isolation ------------------------------------------------

TEST_F(ServerTest, MalformedMessageGetsProtocolErrorAndOthersSurvive) {
  auto victim = PgClient{server_->port()};
  ASSERT_TRUE(victim.Handshake());
  auto bystander = PgClient{server_->port()};
  ASSERT_TRUE(bystander.Handshake());

  // Unknown message type with valid framing: error + ReadyForQuery, session
  // keeps going.
  auto garbage = std::string{"W"};
  const auto length = htonl(4);
  garbage.append(reinterpret_cast<const char*>(&length), 4);
  ASSERT_TRUE(victim.SendRaw(garbage));
  auto messages = victim.ReadUntilReady();
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ((*messages)[0].type, 'E');
  EXPECT_NE((*messages)[0].payload.find("08P01"), std::string::npos);
  EXPECT_TRUE(victim.Query("SELECT 1").has_value()) << "session survives an unknown message type";

  // Broken framing (length < 4): the server cannot resync — it reports the
  // protocol violation and drops only this connection.
  auto broken = std::string{"Q"};
  const auto bad_length = htonl(2);
  broken.append(reinterpret_cast<const char*>(&bad_length), 4);
  ASSERT_TRUE(victim.SendRaw(broken));
  const auto error = victim.ReadMessage();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->type, 'E');
  EXPECT_FALSE(victim.ReadMessage().has_value()) << "connection closed after unrecoverable framing error";

  // The other connection never noticed.
  const auto unaffected = bystander.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(unaffected.has_value());
  EXPECT_NE((*unaffected)[1].payload.find("2"), std::string::npos);
}

TEST(ServerCapacityTest, OverCapConnectionsAreRefusedWithBackpressure) {
  Hyrise::Reset();
  ExecuteSql("CREATE TABLE cap_t (a INT NOT NULL)");
  auto config = ServerConfig{};
  config.max_connections = 2;
  config.backlog = 4;
  auto server = Server{config};
  ASSERT_TRUE(server.Start().ok());

  auto first = PgClient{server.port()};
  ASSERT_TRUE(first.Handshake());
  auto second = PgClient{server.port()};
  ASSERT_TRUE(second.Handshake());

  // Third connection: completes the handshake, then is refused with SQLSTATE
  // 53300 instead of hanging or resetting.
  auto third = PgClient{server.port()};
  ASSERT_TRUE(third.connected());
  ASSERT_TRUE(third.SendStartup());
  const auto refusal = third.ReadMessage();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->type, 'E');
  EXPECT_NE(refusal->payload.find("53300"), std::string::npos);
  EXPECT_FALSE(third.ReadMessage().has_value()) << "refused connection is closed";

  // Admitted sessions keep working.
  EXPECT_TRUE(first.Query("SELECT COUNT(*) FROM cap_t").has_value());
  EXPECT_TRUE(second.Query("SELECT COUNT(*) FROM cap_t").has_value());
  server.Stop();
}

// --- Observability: SHOW SERVER STATS ---------------------------------------

TEST_F(ServerTest, ShowServerStatsExposesCounters) {
  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM t").has_value());

  const auto stats = client.Query("SHOW SERVER STATS");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ((*stats)[0].type, 'T') << "stats arrive as a regular result set";
  const auto accepted = PgClient::StatValue(*stats, "connections_accepted");
  const auto active = PgClient::StatValue(*stats, "active_connections");
  const auto completed = PgClient::StatValue(*stats, "statements_completed");
  ASSERT_TRUE(accepted.has_value());
  ASSERT_TRUE(active.has_value());
  ASSERT_TRUE(completed.has_value());
  EXPECT_GE(*accepted, 1);
  EXPECT_GE(*active, 1);
  EXPECT_GE(*completed, 1) << "the COUNT(*) above already completed";
}

// --- Per-connection idle timeout ---------------------------------------------

TEST(ServerIdleTimeoutTest, QuietConnectionsAreReapedWithNotice) {
  Hyrise::Reset();
  auto config = ServerConfig{};
  config.idle_timeout = std::chrono::milliseconds{200};
  auto server = Server{config};
  ASSERT_TRUE(server.Start().ok());

  auto client = PgClient{server.port()};
  ASSERT_TRUE(client.Handshake());
  ASSERT_TRUE(client.Query("SELECT 1").has_value()) << "activity resets the idle clock";

  // Go quiet past the timeout: the server must send a 57P05 notice and close.
  const auto farewell = client.ReadMessage();
  ASSERT_TRUE(farewell.has_value()) << "server announces the idle disconnect before closing";
  EXPECT_EQ(farewell->type, 'E');
  EXPECT_NE(farewell->payload.find("57P05"), std::string::npos);
  EXPECT_FALSE(client.ReadMessage().has_value()) << "connection is closed after the notice";
  EXPECT_GE(server.stats().idle_timeouts.load(), uint64_t{1});
  server.Stop();
}

// --- Bounded output buffer (slow-reader protection) --------------------------

TEST(ServerSlowReaderTest, ResponseExceedingOutputBoundKillsOnlyThatConnection) {
  Hyrise::Reset();
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", DataType::kInt}}, TableType::kData,
                                       ChunkOffset{1024}, UseMvcc::kYes);
  for (auto value = int32_t{0}; value < 8192; ++value) {
    table->AppendRow({value});
  }
  Hyrise::Get().storage_manager.AddTable("wide", table);

  auto config = ServerConfig{};
  config.max_output_buffer = 32 * 1024;  // ~8k rows serialize to ~4x this.
  auto server = Server{config};
  ASSERT_TRUE(server.Start().ok());

  auto greedy = PgClient{server.port()};
  ASSERT_TRUE(greedy.Handshake());
  auto modest = PgClient{server.port()};
  ASSERT_TRUE(modest.Handshake());

  ASSERT_TRUE(greedy.SendQuery("SELECT a FROM wide"));
  EXPECT_FALSE(greedy.ReadUntilReady().has_value()) << "over-bound response drops the connection";
  EXPECT_GE(server.stats().slow_reader_kills.load(), uint64_t{1});

  // Small responses on other connections are unaffected.
  const auto fine = modest.Query("SELECT COUNT(*) FROM wide");
  ASSERT_TRUE(fine.has_value());
  const auto rows = PgClient::DataRows(*fine);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "8192");
  server.Stop();
}

#if defined(HYRISE_ENABLE_FAULT_INJECTION)

// --- Statement timeout (cooperative cancellation) ----------------------------

class ServerTimeoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    // Many small chunks: cancellation is polled at chunk boundaries, so the
    // reaction time is one chunk, not one table.
    auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", DataType::kInt}}, TableType::kData,
                                         ChunkOffset{10}, UseMvcc::kYes);
    for (auto value = int32_t{0}; value < 400; ++value) {
      table->AppendRow({value});
    }
    Hyrise::Get().storage_manager.AddTable("slow", table);

    auto config = ServerConfig{};
    config.statement_timeout = std::chrono::milliseconds{150};
    server_ = std::make_unique<Server>(config);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    FailureInjection::DisarmAll();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerTimeoutTest, TimedOutStatementIsCancelledCooperativelyAndOthersStayResponsive) {
  // 40 chunks x 25ms injected scan latency = ~1s uncancelled.
  auto spec = FailureSpec{};
  spec.mode = FailureMode::kLatency;
  spec.latency = std::chrono::milliseconds{25};
  FailureInjection::Arm("scan/chunk", spec);

  auto slow_client = PgClient{server_->port()};
  ASSERT_TRUE(slow_client.Handshake());
  auto fast_client = PgClient{server_->port()};
  ASSERT_TRUE(fast_client.Handshake());

  const auto begin = std::chrono::steady_clock::now();
  ASSERT_TRUE(slow_client.SendQuery("SELECT COUNT(*) FROM slow WHERE a >= 0"));

  // While the slow statement burns its timeout, the other connection must
  // stay responsive (scan latency also applies to it, so query metadata
  // only).
  const auto fast_begin = std::chrono::steady_clock::now();
  const auto fast_response = fast_client.Query("SELECT 1 + 1");
  const auto fast_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - fast_begin).count();
  ASSERT_TRUE(fast_response.has_value());
  EXPECT_LT(fast_ms, 500) << "an unrelated connection must not be blocked by a timing-out statement";

  const auto messages = slow_client.ReadUntilReady();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - begin).count();
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ((*messages)[0].type, 'E');
  EXPECT_NE((*messages)[0].payload.find("57014"), std::string::npos) << "query_canceled SQLSTATE";
  EXPECT_NE((*messages)[0].payload.find("timeout"), std::string::npos);
  // Acceptance: cancelled within 2x the timeout (uncancelled would be ~1s).
  EXPECT_LT(elapsed_ms, 2 * 150 + 100) << "cooperative cancellation must react within ~one chunk of the deadline";

  // The connection that timed out stays usable.
  const auto next = slow_client.Query("SELECT 2 + 2");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ((*next)[0].type, 'T');
}

// --- Admission control: graceful shedding at 4x capacity ---------------------

TEST(ServerAdmissionTest, OverloadAtFourTimesCapacityShedsCleanlyAndRecovers) {
  Hyrise::Reset();
  // Many small chunks + injected per-chunk latency: each admitted statement
  // holds its slot for ~1s, so the overload window is wide and deterministic.
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", DataType::kInt}}, TableType::kData,
                                       ChunkOffset{10}, UseMvcc::kYes);
  for (auto value = int32_t{0}; value < 400; ++value) {
    table->AppendRow({value});
  }
  Hyrise::Get().storage_manager.AddTable("slow", table);
  auto spec = FailureSpec{};
  spec.mode = FailureMode::kLatency;
  spec.latency = std::chrono::milliseconds{25};
  FailureInjection::Arm("scan/chunk", spec);

  auto config = ServerConfig{};
  config.admission_capacity = 2;
  auto server = Server{config};
  ASSERT_TRUE(server.Start().ok());

  constexpr auto kClients = 8;  // 4x the admission capacity.
  auto successes = std::atomic<int>{0};
  auto rejections = std::atomic<int>{0};
  auto clients = std::vector<std::unique_ptr<PgClient>>{};
  for (auto index = 0; index < kClients; ++index) {
    clients.push_back(std::make_unique<PgClient>(server.port()));
    ASSERT_TRUE(clients.back()->Handshake());
  }
  auto threads = std::vector<std::thread>{};
  for (auto index = 0; index < kClients; ++index) {
    threads.emplace_back([&, index] {
      const auto response = clients[index]->Query("SELECT COUNT(*) FROM slow WHERE a >= 0");
      if (!response.has_value()) {
        return;  // Dropped connection would fail the post-checks below.
      }
      const auto* error = PgClient::FindType(*response, 'E');
      if (error == nullptr) {
        ++successes;
      } else if (error->payload.find("53300") != std::string::npos) {
        ++rejections;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Every client got a definite answer: admitted work completed, excess was
  // refused with SQLSTATE 53300 — nobody hung, nobody was disconnected.
  EXPECT_EQ(successes.load() + rejections.load(), kClients);
  EXPECT_GE(successes.load(), 2) << "capacity worth of statements must complete";
  EXPECT_GE(rejections.load(), 1) << "the overload must be shed, not queued unboundedly";
  EXPECT_GE(server.stats().statements_rejected.load(), uint64_t{1});

  // Rejected connections survive and recover once load subsides.
  FailureInjection::DisarmAll();
  for (auto& client : clients) {
    const auto retry = client->Query("SELECT 1 + 1");
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(PgClient::FindType(*retry, 'E'), nullptr);
  }
  server.Stop();
}

// --- Client abort mid-statement: session resources are reclaimed -------------

// Regression test: tearing down a connection while its executor job was still
// scheduled/running used to leave the Connection -> active_task -> job-lambda
// -> Connection shared_ptr cycle intact, leaking Connection + Session — the
// abandoned transaction was never rolled back, so its row locks were held
// forever and later writers could never succeed.
TEST(ServerAbortTest, AbortedConnectionMidStatementRollsBackItsTransaction) {
  Hyrise::Reset();
  ExecuteSql("CREATE TABLE account (balance INT NOT NULL)");
  ExecuteSql("INSERT INTO account VALUES (100)");
  // Many small chunks + injected per-chunk latency: the doomed connection's
  // final statement reliably outlives the client that sent it.
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", DataType::kInt}}, TableType::kData,
                                       ChunkOffset{10}, UseMvcc::kYes);
  for (auto value = int32_t{0}; value < 400; ++value) {
    table->AppendRow({value});
  }
  Hyrise::Get().storage_manager.AddTable("slow", table);
  auto spec = FailureSpec{};
  spec.mode = FailureMode::kLatency;
  spec.latency = std::chrono::milliseconds{25};
  FailureInjection::Arm("scan/chunk", spec);

  auto server = Server{ServerConfig{}};
  ASSERT_TRUE(server.Start().ok());

  {
    auto doomed = PgClient{server.port()};
    ASSERT_TRUE(doomed.Handshake());
    ASSERT_TRUE(doomed.Query("BEGIN").has_value());
    // Row lock on the only account row, held until commit/rollback.
    ASSERT_TRUE(doomed.Query("UPDATE account SET balance = 0").has_value());
    // ~1s of injected scan latency; the client vanishes mid-execution.
    ASSERT_TRUE(doomed.SendQuery("SELECT COUNT(*) FROM slow WHERE a >= 0"));
    std::this_thread::sleep_for(std::chrono::milliseconds{150});
  }  // close(fd): the server sees EOF and tears down while the job runs.

  FailureInjection::DisarmAll();
  // Once the in-flight job finishes, the last reference to the doomed
  // connection dies and the Session rollback must release the row lock.
  auto client = PgClient{server.port()};
  ASSERT_TRUE(client.Handshake());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  auto updated = false;
  while (!updated && std::chrono::steady_clock::now() < deadline) {
    const auto response = client.Query("UPDATE account SET balance = 1");
    ASSERT_TRUE(response.has_value());
    updated = PgClient::FindType(*response, 'E') == nullptr;
    if (!updated) {
      std::this_thread::sleep_for(std::chrono::milliseconds{50});
    }
  }
  EXPECT_TRUE(updated) << "the aborted connection's transaction must roll back and release its row locks";
  EXPECT_EQ(server.active_connection_count(), 1u) << "only the live client remains";
  server.Stop();
}

// --- Fault-injected writes: transparent retry over the wire ------------------

TEST_F(ServerTest, InjectedTransientCommitFaultIsRetriedTransparently) {
  auto spec = FailureSpec{};
  spec.max_triggers = 2;  // First two commit attempts fail, third succeeds.
  FailureInjection::Arm("commit/publish", spec);

  auto client = PgClient{server_->port()};
  ASSERT_TRUE(client.Handshake());
  const auto messages = client.Query("INSERT INTO t VALUES (7, 'retry')");
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ((*messages)[0].type, 'C') << "client never sees the two injected failures";
  EXPECT_EQ(FailureInjection::TriggerCount("commit/publish"), 2);

  FailureInjection::DisarmAll();
  const auto count = client.Query("SELECT COUNT(*) FROM t WHERE a = 7");
  ASSERT_TRUE(count.has_value());
  EXPECT_NE((*count)[1].payload.find("1"), std::string::npos) << "exactly one row despite retries — no double insert";
}

#endif  // HYRISE_ENABLE_FAULT_INJECTION

}  // namespace hyrise

/// wire-read and wire-htap: closed-loop PostgreSQL wire clients, one thread
/// each, against an in-process Server on TPC-C tables (4 warehouses).
///
/// wire-read sends Parse once, then Bind/Execute/Sync point reads of random
/// customers. wire-htap runs each client's seeded TpccTransactionGenerator
/// sequence (40% Payment, 40% NewOrder, 20% analytic) as literal SQL over the
/// simple protocol; a transaction rolled back by a write conflict is sent
/// again from BEGIN until it commits (see kMaxTransactionAttempts). Both run
/// in rounds of a fixed number of operations, each on a fresh deployment (see
/// kHtapRoundOps).
///
/// The traced run additionally replays the workload's statements in-process
/// stage by stage (staged.hpp), times scheduler dispatch and in-process
/// commits, and reads SHOW SERVER STATS before and after the measured window.

#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "benchmarklib/tpcc/tpcc_workload.hpp"
#include "common.hpp"
#include "concurrency/transaction_context.hpp"
#include "hyrise.hpp"
#include "optimizer/optimizer.hpp"
#include "pg_client.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"
#include "staged.hpp"
#include "storage/table.hpp"
#include "utils/gdfs_cache.hpp"

namespace perfbench {

namespace {

using hyrise::Hyrise;
using hyrise::testing::PgClient;

constexpr auto kClients = size_t{2};
constexpr auto kPqpCacheEntries = size_t{1024};
/// Throughput is counted per slice of the measured window and reported as
/// the median slice: a burst of host interference (steal time) then moves
/// one slice, not the result.
constexpr auto kSliceNs = int64_t{500'000'000};
/// Room for this many samples per client and measured second is allocated
/// and written before set-up (several times the fastest rate seen).
constexpr auto kSamplesPerSecond = size_t{50'000};
/// A run is a sequence of rounds until the time is up. Each round sets up
/// afresh (tables, server, connections, warm-up) and then runs exactly this
/// many operations per client, so every round does the same work. wire-htap's
/// writes grow its tables, and its latencies with them (about 0.6 to 1.4 ms
/// per transaction over 20 s): a timed run would measure how far the host let
/// the tables grow. The set-ups, spread over the run, are also the samples of
/// setup_s, so a burst of host interference moves few of them.
constexpr auto kHtapRoundOps = uint64_t{500};
constexpr auto kReadRoundOps = uint64_t{5000};
/// A Payment or NewOrder that loses a first-updater conflict (SQLSTATE 40001)
/// is rolled back and sent again from BEGIN, as an application would: the
/// operation completes, its latency includes the attempts it lost, and the
/// lost attempts are counted (concurrency.rollback_share). Only a transaction
/// that still conflicts after this many attempts counts as failed.
constexpr auto kMaxTransactionAttempts = 100;
constexpr auto kConflictSqlState = "40001";
constexpr auto kReadSql =
    "SELECT c_balance, c_payment_cnt FROM tpcc_customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3";
constexpr auto kTableNames = {"tpcc_warehouse", "tpcc_district", "tpcc_customer", "tpcc_orders"};

/// What one request got back, up to and including ReadyForQuery.
struct Response {
  bool ok{false};        // Connection alive and ReadyForQuery seen.
  std::string sqlstate;  // First ErrorResponse's code; empty = no error.
  std::string error;     // Its message.
  std::vector<std::vector<std::optional<std::string>>> rows;

  bool succeeded() const {
    return ok && sqlstate.empty();
  }
};

/// A field of an ErrorResponse payload, a run of (code byte, text): 'C' is
/// the SQLSTATE, 'M' the message.
std::string ErrorField(const std::string& payload, char code) {
  for (auto offset = size_t{0}; offset < payload.size() && payload[offset] != '\0';) {
    const auto end = payload.find('\0', offset + 1);
    if (end == std::string::npos) {
      break;
    }
    if (payload[offset] == code) {
      return payload.substr(offset + 1, end - offset - 1);
    }
    offset = end + 1;
  }
  return "unknown";
}

Response ReadResponse(PgClient& connection) {
  const auto messages = connection.ReadUntilReady();
  auto response = Response{};
  if (!messages) {
    return response;
  }
  response.ok = true;
  if (const auto* error = PgClient::FindType(*messages, 'E')) {
    response.sqlstate = ErrorField(error->payload, 'C');
    response.error = ErrorField(error->payload, 'M');
  }
  response.rows = PgClient::DataRows(*messages);
  return response;
}

/// Simple-protocol round trip.
Response Query(PgClient& connection, const std::string& sql) {
  return connection.SendQuery(sql) ? ReadResponse(connection) : Response{};
}

hyrise::TpccConfig TpccSettings() {
  auto config = hyrise::TpccConfig{};
  config.warehouses = 4;
  return config;
}

/// One I/O thread and one executor worker: with the two client threads that
/// is one thread per core on a 4-core host.
hyrise::ServerConfig ServerSettings() {
  auto config = hyrise::ServerConfig{};
  config.io_threads = 1;
  config.executor_workers = 1;
  config.jit = false;
  return config;
}

enum class OpKind : uint8_t { kRead, kPayment, kNewOrder, kAnalytic };

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kRead:
      return "read";
    case OpKind::kPayment:
      return "payment";
    case OpKind::kNewOrder:
      return "neworder";
    default:
      return "analytic";
  }
}

struct Op {
  OpKind kind{OpKind::kRead};
  std::vector<std::string> statements;  // Literal SQL (htap) or the key (read).
};

/// The deterministic operation sequence of one client, fixed by the seed.
class OpSequence {
 public:
  OpSequence(bool htap, uint32_t seed, size_t client)
      : htap_(htap),
        rng_(uint64_t{seed} * 1'000'003 + client + 1),
        generator_(TpccSettings(), seed * 31 + static_cast<uint32_t>(client) + 7) {}

  Op Next() {
    const auto tpcc = TpccSettings();
    if (!htap_) {
      return Op{OpKind::kRead,
                {std::to_string(Uniform(1, tpcc.warehouses)), std::to_string(Uniform(1, tpcc.districts_per_warehouse)),
                 std::to_string(Uniform(1, tpcc.customers_per_district))}};
    }
    const auto draw = rng_() % 10;
    if (draw < 4) {
      return Op{OpKind::kPayment, generator_.NextPayment()};
    }
    if (draw < 8) {
      return Op{OpKind::kNewOrder, generator_.NextNewOrder()};
    }
    return Op{OpKind::kAnalytic, {generator_.NextAnalyticQuery()}};
  }

 private:
  int64_t Uniform(int64_t low, int64_t high) {
    return low + static_cast<int64_t>(rng_() % static_cast<uint64_t>(high - low + 1));
  }

  bool htap_;
  std::mt19937_64 rng_;
  hyrise::TpccTransactionGenerator generator_;
};

using CustomerKey = std::tuple<std::string, std::string, std::string>;
using CustomerRows = std::map<CustomerKey, std::pair<std::string, std::string>>;

/// One completed, measured operation.
struct Sample {
  float ms;
  OpKind kind;
  bool traced;
};

/// Everything one client measured and saw.
struct ClientStats {
  /// Pre-sized and written before set-up, so that the peak RSS does not
  /// depend on how many operations a run completes: peak_rss_mb measures
  /// the engine, not the sample count.
  std::vector<Sample> samples;
  size_t sample_count{0};
  /// Completed operations per kSliceNs slice since slice_origin.
  std::vector<uint64_t> completions_per_slice;
  int64_t slice_origin{0};
  uint64_t attempted{0};
  uint64_t failed{0};
  uint64_t transactions_attempted{0};
  /// Attempts rolled back by a conflict and sent again.
  uint64_t transaction_rollbacks{0};
  std::map<std::string, uint64_t> failures_by_sqlstate;
  std::vector<std::string> check_failures;
  Tracer tracer;

  void Reject(std::string message) {
    if (check_failures.size() < 10) {
      check_failures.push_back(std::move(message));
    }
  }

  void Record(const Sample& sample) {
    if (sample_count == samples.size()) {
      samples.push_back(sample);
    } else {
      samples[sample_count] = sample;
    }
    ++sample_count;
  }
};

class Client {
 public:
  Client(uint16_t port, bool htap, uint32_t seed, size_t index, const CustomerRows& customers)
      : connection_(port), htap_(htap), sequence_(htap, seed, index), customers_(customers) {}

  /// Handshake; wire-read also sends Parse of the read statement once.
  bool Connect() {
    return connection_.Handshake() &&
           (htap_ || (connection_.SendParse("read", kReadSql) && connection_.SendSync() &&
                      ReadResponse(connection_).succeeded()));
  }

  PgClient& connection() {
    return connection_;
  }

  uint64_t committed_new_orders() const {
    return committed_new_orders_;
  }

  /// Runs the next operation of the sequence. Returns false once the
  /// connection is gone.
  bool RunNext(bool measured, Tracer* tracer, ClientStats& stats) {
    const auto op = sequence_.Next();
    const auto span = ScopedSpan{tracer, std::string{"wire."} + OpName(op.kind), ++request_id_};
    const auto start = NowNs();
    auto sqlstate = std::string{};
    auto failure = std::string{};  // The failed statement and the error.
    auto alive = true;
    auto rolled_back = uint64_t{0};
    if (op.kind == OpKind::kRead) {
      const auto parameters = std::vector<std::optional<std::string>>(op.statements.begin(), op.statements.end());
      const auto response = connection_.SendBind("", "read", parameters) && connection_.SendExecute("") &&
                                    connection_.SendSync()
                                ? ReadResponse(connection_)
                                : Response{};
      alive = response.ok;
      sqlstate = response.ok ? response.sqlstate : "connection";
      // Reads never fail on this engine: a failed read fails the run.
      if (sqlstate.empty()) {
        CheckRead(op.statements, response, stats);
      } else {
        stats.Reject("read of customer (" + op.statements[0] + ", " + op.statements[1] + ", " + op.statements[2] +
                     ") failed with SQLSTATE " + sqlstate);
      }
    } else {
      for (auto attempt = 1;; ++attempt) {
        sqlstate.clear();
        for (const auto& sql : op.statements) {
          const auto statement_span = ScopedSpan{tracer, "wire.statement"};
          const auto response = Query(connection_, sql);
          if (!response.succeeded()) {
            alive = response.ok;
            sqlstate = response.ok ? response.sqlstate : "connection";
            failure = sql + ": " + response.error;
            break;
          }
          if (op.kind == OpKind::kAnalytic && response.rows.empty()) {
            stats.Reject("analytic query returned no rows: " + sql);
          }
        }
        if (!sqlstate.empty() && alive && op.kind != OpKind::kAnalytic) {
          alive = Query(connection_, "ROLLBACK").ok;
        }
        if (sqlstate != kConflictSqlState || !alive || attempt == kMaxTransactionAttempts) {
          // Conflicts are retried, so no operation fails on this engine: a
          // failed one fails the run (reads are rejected above).
          if (!sqlstate.empty()) {
            stats.Reject(std::string{OpName(op.kind)} + " failed with SQLSTATE " + sqlstate + " after " +
                         std::to_string(attempt) + " attempt(s) at " + failure);
          }
          break;
        }
        rolled_back += measured ? 1 : 0;
      }
      if (sqlstate.empty() && op.kind == OpKind::kNewOrder) {
        ++committed_new_orders_;
      }
    }
    const auto elapsed_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!measured) {
      return alive;
    }
    ++stats.attempted;
    const auto is_transaction = op.kind == OpKind::kPayment || op.kind == OpKind::kNewOrder;
    stats.transactions_attempted += is_transaction ? 1 : 0;
    stats.transaction_rollbacks += rolled_back;
    if (!sqlstate.empty()) {
      ++stats.failed;
      ++stats.failures_by_sqlstate[sqlstate];
      return alive;
    }
    stats.Record(Sample{static_cast<float>(elapsed_ms), op.kind, tracer != nullptr});
    const auto slice = static_cast<size_t>((NowNs() - stats.slice_origin) / kSliceNs);
    stats.completions_per_slice.resize(std::max(stats.completions_per_slice.size(), slice + 1));
    ++stats.completions_per_slice[slice];
    return alive;
  }

 private:
  void CheckRead(const std::vector<std::string>& key, const Response& response, ClientStats& stats) {
    const auto expected = customers_.find(CustomerKey{key[0], key[1], key[2]});
    if (response.rows.size() != 1 || response.rows[0].size() != 2 || expected == customers_.end() ||
        response.rows[0][0] != expected->second.first || response.rows[0][1] != expected->second.second) {
      stats.Reject("read of customer (" + key[0] + ", " + key[1] + ", " + key[2] +
                 ") does not match the in-process read");
    }
  }

  PgClient connection_;
  bool htap_;
  OpSequence sequence_;
  const CustomerRows& customers_;
  uint64_t committed_new_orders_{0};
  uint64_t request_id_{0};
};

/// In-process query, MVCC on, no plan cache; the last result table's rows.
std::vector<std::vector<hyrise::AllTypeVariant>> QueryInProcess(const std::string& sql) {
  auto builder = hyrise::SqlPipeline::Builder{sql};
  builder.WithPqpCache(nullptr).WithResultCache(nullptr);
  auto pipeline = builder.Build();
  if (pipeline.Execute() != hyrise::SqlPipelineStatus::kSuccess || !pipeline.result_table()) {
    return {};
  }
  return pipeline.result_table()->GetRows();
}

/// The generator gives every customer the same balance and payment count.
/// The table is rebuilt row for row with values of each customer's own, so
/// that a read served with another key's row (stale or swapped parameters)
/// does not match. Unlike an UPDATE, this leaves no invalidated row versions
/// for the reads to scan.
void MakeCustomersDistinct() {
  auto& storage_manager = Hyrise::Get().storage_manager;
  const auto generated = storage_manager.GetTable("tpcc_customer");
  auto customers = std::make_shared<hyrise::Table>(generated->column_definitions(), hyrise::TableType::kData,
                                                   generated->target_chunk_size(), hyrise::UseMvcc::kYes);
  for (auto row : generated->GetRows()) {
    // c_w_id, c_d_id, c_id, c_balance, c_payment_cnt.
    const auto customer = std::get<int32_t>(row[2]);
    row[3] = int64_t{std::get<int32_t>(row[0])} * 100'000 + std::get<int32_t>(row[1]) * 1'000 + customer;
    row[4] = customer;
    customers->AppendRow(row);
  }
  storage_manager.DropTable("tpcc_customer");
  storage_manager.AddTable("tpcc_customer", customers);
}

size_t DistinctRows(const CustomerRows& customers) {
  auto values = std::set<std::pair<std::string, std::string>>{};
  for (const auto& [key, value] : customers) {
    values.insert(value);
  }
  return values.size();
}

CustomerRows ReadCustomersInProcess() {
  auto customers = CustomerRows{};
  for (const auto& row :
       QueryInProcess("SELECT c_w_id, c_d_id, c_id, c_balance, c_payment_cnt FROM tpcc_customer")) {
    customers[CustomerKey{hyrise::VariantToString(row[0]), hyrise::VariantToString(row[1]),
                          hyrise::VariantToString(row[2])}] = {hyrise::VariantToString(row[3]),
                                                               hyrise::VariantToString(row[4])};
  }
  return customers;
}

std::map<std::string, int64_t> ServerStats(PgClient& connection) {
  auto stats = std::map<std::string, int64_t>{};
  for (const auto& row : Query(connection, "SHOW SERVER STATS").rows) {
    if (row.size() == 2 && row[0] && row[1]) {
      stats[*row[0]] = std::stoll(*row[1]);
    }
  }
  return stats;
}

/// A running deployment: tables, plan cache, server, connected clients.
struct Deployment {
  std::unique_ptr<hyrise::Server> server;
  CustomerRows customers;
  std::vector<std::unique_ptr<Client>> clients;

  ~Deployment() {
    clients.clear();
    if (server) {
      server->Stop();
    }
  }
};

/// Runs every client on its own thread until it has done `ops` operations or
/// the deadline has passed.
void RunClients(Deployment& deployment, std::vector<ClientStats>& stats, bool measured, uint64_t ops,
                int64_t deadline, bool trace) {
  auto threads = std::vector<std::thread>{};
  for (auto index = size_t{0}; index < deployment.clients.size(); ++index) {
    threads.emplace_back([&, index] {
      auto& client = *deployment.clients[index];
      for (auto op = uint64_t{0}; op < ops && NowNs() < deadline; ++op) {
        // The traced run traces every other operation; the untraced half is
        // the baseline of tracing.overhead_share.
        const auto traced = trace && op % 2 == 0;
        if (!client.RunNext(measured, traced ? &stats[index].tracer : nullptr, stats[index])) {
          stats[index].Reject("client " + std::to_string(index) + " lost its connection");
          break;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

/// Set-up: tables, plan cache, server start, connecting, warm-up.
std::unique_ptr<Deployment> Deploy(const Options& options, bool htap, Tracer* tracer, RunResult& result) {
  auto deployment = std::make_unique<Deployment>();
  Hyrise::Reset();
  {
    const auto span = ScopedSpan{tracer, "benchmarklib.generate"};
    hyrise::GenerateTpccTables(TpccSettings());
  }
  Hyrise::Get().default_pqp_cache = std::make_shared<hyrise::PqpCache>(kPqpCacheEntries);
  if (!htap) {
    MakeCustomersDistinct();
    deployment->customers = ReadCustomersInProcess();
    const auto tpcc = TpccSettings();
    const auto customer_count =
        static_cast<size_t>(tpcc.warehouses * tpcc.districts_per_warehouse * tpcc.customers_per_district);
    if (deployment->customers.size() != customer_count || DistinctRows(deployment->customers) != customer_count) {
      result.Reject("the customers' in-process rows are not distinct per key");
      return nullptr;
    }
  }
  deployment->server = std::make_unique<hyrise::Server>(ServerSettings());
  const auto started = deployment->server->Start();
  if (!started.ok()) {
    result.Reject("server did not start: " + started.error());
    return nullptr;
  }
  const auto warmup_ops = uint64_t{htap ? 10u : 50u};
  for (auto index = size_t{0}; index < kClients; ++index) {
    deployment->clients.push_back(std::make_unique<Client>(deployment->server->port(), htap, options.seed, index,
                                                           deployment->customers));
    if (!deployment->clients.back()->Connect()) {
      result.Reject("client " + std::to_string(index) + " could not connect");
      return nullptr;
    }
  }
  auto warmup_stats = std::vector<ClientStats>(kClients);
  RunClients(*deployment, warmup_stats, false, warmup_ops, INT64_MAX, false);
  for (const auto& stats : warmup_stats) {
    for (const auto& failure : stats.check_failures) {
      result.Reject("warm-up: " + failure);
    }
  }
  return deployment;
}

/// The audits that must hold after every wire-htap run.
void CheckHtapEndState(uint64_t committed_new_orders, RunResult& result) {
  const auto warehouse_ytd = QueryInProcess(hyrise::TpccTransactionGenerator::WarehouseYtdSumQuery());
  const auto district_ytd = QueryInProcess(hyrise::TpccTransactionGenerator::DistrictYtdSumQuery());
  if (warehouse_ytd.empty() || district_ytd.empty() ||
      hyrise::VariantToString(warehouse_ytd[0][0]) != hyrise::VariantToString(district_ytd[0][0])) {
    result.Reject("SUM(w_ytd) differs from SUM(d_ytd)");
  }
  const auto orders = QueryInProcess("SELECT COUNT(*) FROM tpcc_orders");
  if (orders.empty() || hyrise::VariantToString(orders[0][0]) != std::to_string(committed_new_orders)) {
    result.Reject("COUNT(*) of tpcc_orders (" + (orders.empty() ? std::string{"?"} : hyrise::VariantToString(orders[0][0])) +
                ") differs from the committed NewOrders (" + std::to_string(committed_new_orders) + ")");
  }
}

double TableMb() {
  auto bytes = size_t{0};
  for (const auto* name : kTableNames) {
    bytes += Hyrise::Get().storage_manager.GetTable(name)->MemoryUsage();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double Share(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// In-process replay of the workload's first operations, stage by stage
/// under spans recorded in `tracer`. Reads run against the plan the
/// server uses (MVCC on, default optimizer); htap writes are planned but
/// not executed, so the tables stay as the clients left them.
void ReplayStaged(const Options& options, bool htap, Tracer& tracer, RunResult& result,
                  std::vector<std::string>& analytic_texts) {
  auto staged = StagedOptions{};
  staged.use_mvcc = hyrise::UseMvcc::kYes;
  staged.optimizer = hyrise::Optimizer::CreateDefault();
  const auto ops_per_client = options.smoke ? 10 : (htap ? 150 : 500);
  auto request_id = uint64_t{0};
  for (auto client = size_t{0}; client < kClients; ++client) {
    auto sequence = OpSequence{htap, options.seed, client};
    for (auto index = 0; index < ops_per_client; ++index) {
      const auto op = sequence.Next();
      auto run_options = staged;
      auto texts = op.statements;
      if (op.kind == OpKind::kRead) {
        texts = {kReadSql};
        for (const auto& value : op.statements) {
          run_options.parameters.emplace_back(static_cast<int32_t>(std::stoi(value)));
        }
      }
      run_options.execute = op.kind == OpKind::kRead || op.kind == OpKind::kAnalytic;
      for (const auto& sql : texts) {
        auto run = StagedResult{};
        {
          const auto span = ScopedSpan{&tracer, "stmt", ++request_id};
          run = RunStaged(sql, run_options, &tracer);
        }
        if (!run.ok) {
          result.Reject("in-process replay failed: " + sql + ": " + run.error);
        } else if (run_options.execute && (run.tables.empty() || run.tables.back()->row_count() == 0)) {
          result.Reject("in-process replay returned no rows: " + sql);
        }
        if (op.kind == OpKind::kAnalytic) {
          analytic_texts.push_back(sql);
        }
      }
    }
  }
}

/// Median in-process SqlPipeline time (ms) of statements, with the server's
/// plan cache.
double InProcessMedianMs(const std::vector<std::pair<std::string, std::vector<hyrise::AllTypeVariant>>>& statements,
                         RunResult& result) {
  auto times = std::vector<double>{};
  for (const auto& [sql, parameters] : statements) {
    const auto start = NowNs();
    auto builder = hyrise::SqlPipeline::Builder{sql};
    builder.WithParameters(parameters);
    auto pipeline = builder.Build();
    const auto status = pipeline.Execute();
    times.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (status != hyrise::SqlPipelineStatus::kSuccess) {
      result.Reject("in-process statement failed: " + sql);
    }
  }
  return Median(times);
}

/// In-process Payment transactions, each COMMIT under a span; returns the
/// median commit time in microseconds.
double InProcessCommitUs(const Options& options, RunResult& result) {
  auto generator = hyrise::TpccTransactionGenerator{TpccSettings(), options.seed + 1'000'003};
  auto tracer = Tracer{};
  const auto transactions = options.smoke ? 10 : 200;
  for (auto transaction = 0; transaction < transactions; ++transaction) {
    const auto context = Hyrise::Get().transaction_manager.NewTransactionContext();
    auto ok = true;
    for (const auto& sql : generator.NextPayment()) {
      if (sql == "BEGIN" || sql == "COMMIT") {
        continue;
      }
      auto builder = hyrise::SqlPipeline::Builder{sql};
      builder.WithTransactionContext(context);
      auto pipeline = builder.Build();
      ok = ok && pipeline.Execute() == hyrise::SqlPipelineStatus::kSuccess;
    }
    if (!ok) {
      result.Reject("in-process Payment failed");
      if (context->IsActive()) {
        context->Rollback();
      }
      continue;
    }
    const auto span = ScopedSpan{&tracer, "concurrency.commit"};
    if (!context->Commit()) {
      result.Reject("in-process COMMIT failed");
    }
  }
  auto micros = std::vector<double>{};
  for (const auto ns : SpanDurations(tracer.spans(), "concurrency.commit")) {
    micros.push_back(static_cast<double>(ns) / 1e3);
  }
  return Median(micros);
}

}  // namespace

RunResult RunWire(const Options& options) {
  const auto htap = options.workload == "wire-htap";
  auto result = RunResult{};
  const auto tpcc = TpccSettings();
  const auto server_config = ServerSettings();
  result.metadata = {
      {"tpcc_warehouses", std::to_string(tpcc.warehouses)},
      {"tpcc_customers",
       std::to_string(tpcc.warehouses * tpcc.districts_per_warehouse * tpcc.customers_per_district)},
      {"server", "io_threads=" + std::to_string(server_config.io_threads) +
                     " executor_workers=" + std::to_string(server_config.executor_workers) +
                     " jit=off wal=none result_cache=off pqp_cache=" + std::to_string(kPqpCacheEntries)},
      {"protocol", htap ? "simple (literal SQL)" : "extended (prepared)"},
      {"clients", std::to_string(kClients)},
  };

  auto client_stats = std::vector<ClientStats>(kClients);
  for (auto& stats : client_stats) {
    stats.samples.resize(static_cast<size_t>(options.seconds + 1) * kSamplesPerSecond);
  }
  const auto round_ops = options.smoke ? (htap ? 50 : 500) : (htap ? kHtapRoundOps : kReadRoundOps);
  auto setup_tracer = Tracer{};
  auto deployment = std::unique_ptr<Deployment>{};
  auto setup_s = std::vector<double>{};
  // SHOW SERVER STATS deltas, summed over the rounds (traced run).
  auto server_deltas = std::map<std::string, double>{};
  auto window_start = int64_t{0};
  auto deadline = int64_t{0};
  auto rounds = 0;
  for (; rounds == 0 || NowNs() < deadline; ++rounds) {
    deployment.reset();
    // Each round's threads leave freed memory in their malloc arenas. A
    // deployment that runs for good would not cycle through them, so the
    // memory goes back to the system: otherwise peak_rss_mb would grow with
    // the number of rounds, by up to 10 MB.
    malloc_trim(0);
    const auto start = NowNs();
    deployment = Deploy(options, htap, rounds == 0 && options.trace ? &setup_tracer : nullptr, result);
    if (!deployment) {
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (rounds == 0) {
      window_start = NowNs();
      deadline = window_start + static_cast<int64_t>(options.seconds * 1e9);
      for (auto& stats : client_stats) {
        stats.slice_origin = window_start;
      }
    }
    const auto stats_before = options.trace ? ServerStats(deployment->clients[0]->connection())
                                            : std::map<std::string, int64_t>{};
    RunClients(*deployment, client_stats, true, round_ops, INT64_MAX, options.trace);
    if (htap) {
      auto committed_new_orders = uint64_t{0};
      for (const auto& client : deployment->clients) {
        committed_new_orders += client->committed_new_orders();
      }
      CheckHtapEndState(committed_new_orders, result);
    }
    if (options.trace) {
      for (const auto& [name, after] : ServerStats(deployment->clients[0]->connection())) {
        const auto before = stats_before.find(name);
        server_deltas[name] += before == stats_before.end() ? 0.0 : static_cast<double>(after - before->second);
      }
    }
  }
  if (!htap) {
    result.report.push_back(
        {"wire.read_distinct_rows", static_cast<double>(DistinctRows(deployment->customers)), "count"});
  }
  const auto window_s = static_cast<double>(NowNs() - window_start) / 1e9;
  // Before the samples are copied out for the statistics below.
  const auto peak_rss_mb = PeakRssMb();

  auto latency = std::map<OpKind, std::vector<double>>{};
  auto traced_ms = std::vector<double>{};
  auto untraced_ms = std::vector<double>{};
  auto transactions_attempted = uint64_t{0};
  auto transaction_rollbacks = uint64_t{0};
  auto slice_completions = std::vector<double>{};
  for (auto index = size_t{0}; index < kClients; ++index) {
    auto& stats = client_stats[index];
    slice_completions.resize(std::max(slice_completions.size(), stats.completions_per_slice.size()));
    for (auto slice = size_t{0}; slice < stats.completions_per_slice.size(); ++slice) {
      slice_completions[slice] += static_cast<double>(stats.completions_per_slice[slice]);
    }
    for (auto sample = size_t{0}; sample < stats.sample_count; ++sample) {
      const auto& [ms, kind, traced] = stats.samples[sample];
      latency[kind].push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
    result.attempted += stats.attempted;
    result.failed += stats.failed;
    transactions_attempted += stats.transactions_attempted;
    transaction_rollbacks += stats.transaction_rollbacks;
    for (const auto& [sqlstate, count] : stats.failures_by_sqlstate) {
      result.failures_by_sqlstate[sqlstate] += count;
    }
    for (auto& failure : stats.check_failures) {
      result.Reject(failure);
    }
  }
  const auto completed = static_cast<double>(result.attempted - result.failed);
  // The last slice is cut short by the deadline.
  if (slice_completions.size() > 1) {
    slice_completions.pop_back();
  }
  result.report.push_back({"wire.completed_overall_per_s", completed / window_s, "1/s"});
  result.report.push_back({"wire.rounds", static_cast<double>(rounds), "count"});
  auto transactions_ms = latency[OpKind::kPayment];
  transactions_ms.insert(transactions_ms.end(), latency[OpKind::kNewOrder].begin(),
                         latency[OpKind::kNewOrder].end());
  // The bounded latencies are first quartiles. Host contention on a shared
  // 4-vCPU KVM guest comes in episodes of minutes that slow every thread
  // hand-off between client, I/O thread and executor: over ten seeds of 20 s
  // there, read p50 spread 17-22% (IQR over median) and read p25 7-11%.
  const auto p25 = [](const std::vector<double>& values) {
    return Quantile(values, 0.25);
  };
  auto kind_p25s = std::vector<double>{};
  for (const auto kind : {OpKind::kRead, OpKind::kPayment, OpKind::kNewOrder, OpKind::kAnalytic}) {
    if (!latency[kind].empty()) {
      kind_p25s.push_back(p25(latency[kind]));
      result.report.push_back({std::string{"wire."} + OpName(kind) + ".p50_ms", Median(latency[kind]), "ms"});
      result.report.push_back({std::string{"wire."} + OpName(kind) + ".p25_ms", kind_p25s.back(), "ms"});
      result.report.push_back(
          {std::string{"wire."} + OpName(kind) + ".samples", static_cast<double>(latency[kind].size()), "count"});
    }
  }
  // Without write transactions, every operation is its own transaction.
  // Payment and NewOrder latencies form two clusters of equal weight, and
  // a quantile of such a mixture jumps between them from run to run: the
  // typical transaction is the geomean of the two kinds' quantiles instead.
  const auto& unit_ms = htap ? transactions_ms : latency[OpKind::kRead];
  const auto& read_ms = htap ? latency[OpKind::kAnalytic] : latency[OpKind::kRead];
  const auto txn_quantile = [&](double fraction) {
    return htap ? GeometricMean({Quantile(latency[OpKind::kPayment], fraction),
                                 Quantile(latency[OpKind::kNewOrder], fraction)})
                : Quantile(unit_ms, fraction);
  };
  result.report.push_back({"completed_per_s", Median(slice_completions) / (static_cast<double>(kSliceNs) / 1e9),
                           "1/s"});
  result.report.push_back({"read_p50_ms", Median(read_ms), "ms"});
  result.report.push_back({"txn_p50_ms", txn_quantile(0.5), "ms"});
  result.report.push_back({"txn_p99_ms", Quantile(unit_ms, 0.99), "ms"});
  if (htap) {
    result.report.push_back({"analytic_p50_ms", Median(read_ms), "ms"});
    // Of all transaction attempts, the share a conflict rolled back.
    result.report.push_back(
        {"concurrency.rollback_share",
         Share(static_cast<double>(transaction_rollbacks),
               static_cast<double>(transactions_attempted + transaction_rollbacks)),
         "share"});
  } else {
    result.report.push_back({"server.read_p99_ms", Quantile(read_ms, 0.99), "ms"});
  }
  if (unit_ms.empty() || read_ms.empty()) {
    result.Reject("no operation completed");
  }

  if (!options.trace) {
    result.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"query_geomean_ms", GeometricMean(kind_p25s), "ms"},
        {"read_p25_ms", p25(read_ms), "ms"},
        {"txn_p25_ms", txn_quantile(0.25), "ms"},
    };
    return result;
  }

  // --- Traced extras, with the server still running -------------------------
  const auto delta = [&](const std::string& name) {
    const auto entry = server_deltas.find(name);
    return entry == server_deltas.end() ? 0.0 : entry->second;
  };
  const auto dispatch_us = MeanDispatchUs(options.smoke ? 100 : 2000);

  auto replay_tracer = Tracer{};
  auto analytic_texts = std::vector<std::string>{};
  ReplayStaged(options, htap, replay_tracer, result, analytic_texts);
  const auto totals = SummarizeSpans(replay_tracer.spans());
  auto attributed_ns = 0.0;
  for (const auto& [name, entry] : totals) {
    const auto is_stage = name == "sql.parse" || name == "sql.translate" || name == "optimizer.optimize" ||
                          name == "lqp.translate";
    const auto is_operator = name.rfind("operators.", 0) == 0 && name != "operators.execute";
    if (is_stage || is_operator) {
      attributed_ns += static_cast<double>(is_stage ? entry.total_ns : entry.self_ns);
    }
  }
  const auto statement_ns = totals.count("stmt") ? static_cast<double>(totals.at("stmt").total_ns) : 0.0;

  // Same statements in-process through SqlPipeline (plan cache, no socket).
  auto in_process = std::vector<std::pair<std::string, std::vector<hyrise::AllTypeVariant>>>{};
  if (htap) {
    for (const auto& sql : analytic_texts) {
      in_process.emplace_back(sql, std::vector<hyrise::AllTypeVariant>{});
    }
  } else {
    auto sequence = OpSequence{false, options.seed + 17, 0};
    for (auto index = 0; index < (options.smoke ? 20 : 2000); ++index) {
      auto parameters = std::vector<hyrise::AllTypeVariant>{};
      for (const auto& value : sequence.Next().statements) {
        parameters.emplace_back(static_cast<int32_t>(std::stoi(value)));
      }
      in_process.emplace_back(kReadSql, std::move(parameters));
    }
  }
  const auto in_process_ms = InProcessMedianMs(in_process, result);
  const auto client_p50_ms = Median(read_ms);

  result.metrics = {
      {"benchmarklib.generate_s",
       static_cast<double>(SummarizeSpans(setup_tracer.spans())["benchmarklib.generate"].total_ns) / 1e9, "s"},
      {"storage.table_mb", TableMb(), "MB"},
      {"sql.stmt_parse_us", MeanMicros(totals, "sql.parse"), "us"},
      {"sql.stmt_translate_us", MeanMicros(totals, "sql.translate"), "us"},
      {"optimizer.stmt_optimize_us", MeanMicros(totals, "optimizer.optimize"), "us"},
      {"lqp.stmt_translate_us", MeanMicros(totals, "lqp.translate"), "us"},
      {"operators.stmt_execute_us", MeanMicros(totals, "operators.execute"), "us"},
      {"operators.attributed_share", Share(attributed_ns, statement_ns), "share"},
      {"scheduler.dispatch_us", dispatch_us, "us"},
      {"cache.pqp_hit_share", Share(delta("pqp_cache_hits"), delta("statements_completed")), "share"},
      {"tracing.overhead_share", Median(traced_ms) / Median(untraced_ms) - 1.0, "share"},
  };
  auto& report = result.report;
  report.push_back({"server.bytes_per_statement", Share(delta("bytes_sent"), delta("statements_completed")), "B"});
  report.push_back({"server.statements_rejected", delta("statements_rejected"), "count"});
  if (htap) {
    report.push_back({"server.stmt_overhead_ms", client_p50_ms - in_process_ms, "ms"});
    report.push_back({"operators.analytic_execute_ms", MeanMicros(totals, "operators.execute") / 1e3, "ms"});
    report.push_back({"concurrency.commit_us", InProcessCommitUs(options, result), "us"});
    report.push_back({"concurrency.conflict_retries_per_txn",
                      Share(delta("conflict_retries"), static_cast<double>(transactions_attempted)), "count"});
  } else {
    report.push_back({"server.read_roundtrip_ms", client_p50_ms, "ms"});
    report.push_back({"sql.read_inprocess_ms", in_process_ms, "ms"});
    report.push_back({"server.read_overhead_ms", client_p50_ms - in_process_ms, "ms"});
  }

  if (!options.trace_path.empty()) {
    auto tracers = std::vector<const Tracer*>{&setup_tracer, &replay_tracer};
    for (const auto& stats : client_stats) {
      tracers.push_back(&stats.tracer);
    }
    if (!WriteSpans(options.trace_path, tracers)) {
      result.Reject("cannot write spans to " + options.trace_path);
    }
  }
  return result;
}

}  // namespace perfbench

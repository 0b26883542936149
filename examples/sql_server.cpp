/// Network-server example (paper §2.5): starts the PostgreSQL-wire-protocol
/// server so psql or any PostgreSQL driver can connect:
///
///   ./sql_server [port=54321] [tpch_scale_factor] [snapshot_dir] [wal_dir]
///   psql -h 127.0.0.1 -p 54321
///
/// With a snapshot_dir, the server warm-restarts from the snapshot published
/// there (if any) and the SQL surface can write new ones:
///   SNAPSHOT TO '<snapshot_dir>';   -- from any client
///
/// With a wal_dir, every commit is additionally redo-logged there and startup
/// replays commits the snapshot does not cover (crash recovery, DESIGN.md
/// §5g); `CHECKPOINT` snapshots into snapshot_dir and truncates covered log
/// segments. HYRISE_DURABILITY=off|async|sync (default sync) picks whether
/// COMMIT waits for the group-commit fsync.
///
/// Front-end tuning (DESIGN.md §5i) via environment variables:
///   HYRISE_IO_THREADS=N              epoll I/O threads (default 2)
///   HYRISE_EXECUTOR_WORKERS=N        scheduler workers (default: hardware)
///   HYRISE_MAX_CONNECTIONS=N         connection cap (default 64)
///   HYRISE_ADMISSION_CAPACITY=N      concurrent-statement cap, 0 = off
///   HYRISE_IDLE_TIMEOUT_S=N          reap idle connections, 0 = off
///   HYRISE_STATEMENT_TIMEOUT_MS=N    per-statement timeout, 0 = off
///   HYRISE_QUERY_MEMORY_BUDGET=N     bytes per result set, 0 = off
///   HYRISE_LOG_STATEMENTS=1          one stderr line per statement
/// `SHOW SERVER STATS` from any client reports the live counters.
///
/// Runs until EOF on stdin.

#include <cstdlib>
#include <iostream>
#include <memory>

#include "benchmarklib/tpch/tpch_table_generator.hpp"
#include "cache/result_cache.hpp"
#include "hyrise.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"

int main(int argc, char** argv) {
  using namespace hyrise;
  const auto port = argc > 1 ? static_cast<uint16_t>(std::stoi(argv[1])) : uint16_t{54321};
  const auto snapshot_dir = argc > 3 ? std::string{argv[3]} : std::string{};
  const auto wal_dir = argc > 4 ? std::string{argv[4]} : std::string{};

  if (argc > 2 && std::stod(argv[2]) > 0.0) {
    auto config = TpchConfig{};
    config.scale_factor = std::stod(argv[2]);
    std::cout << "Generating TPC-H at SF " << config.scale_factor << "...\n";
    GenerateTpchTables(config);
  } else if (snapshot_dir.empty()) {
    ExecuteSql("CREATE TABLE demo (id INT NOT NULL, message VARCHAR(40))");
    ExecuteSql("INSERT INTO demo VALUES (1, 'hello from hyrise-repro')");
  }

  // Serve repeated dashboard-style queries from the plan cache and the
  // subtree result cache (DESIGN.md §5f); committed writes invalidate
  // affected result entries, DDL invalidates stale plans.
  Hyrise::Get().default_pqp_cache = std::make_shared<PqpCache>(1024);
  Hyrise::Get().default_result_cache = std::make_shared<ResultCache>();

  auto config = ServerConfig{};
  config.port = port;
  config.restore_directory = snapshot_dir;
  config.wal_directory = wal_dir;
  if (const auto* durability_env = std::getenv("HYRISE_DURABILITY"); durability_env && *durability_env) {
    const auto mode = std::string{durability_env};
    if (mode == "off") {
      config.durability = persistence::DurabilityMode::kOff;
    } else if (mode == "async") {
      config.durability = persistence::DurabilityMode::kAsync;
    } else if (mode == "sync") {
      config.durability = persistence::DurabilityMode::kSync;
    } else {
      std::cerr << "Unknown HYRISE_DURABILITY '" << mode << "' (expected off|async|sync)\n";
      return 1;
    }
  }
  // HYRISE_LOG_STATEMENTS=1 prints one line per statement to stderr with
  // plan-cache and result-cache reuse counters.
  const auto* log_env = std::getenv("HYRISE_LOG_STATEMENTS");
  config.log_statements = log_env && *log_env && *log_env != '0';

  const auto env_number = [](const char* name, uint64_t fallback) {
    const auto* value = std::getenv(name);
    return value && *value ? std::strtoull(value, nullptr, 10) : fallback;
  };
  config.io_threads = static_cast<size_t>(env_number("HYRISE_IO_THREADS", config.io_threads));
  config.executor_workers = static_cast<uint32_t>(env_number("HYRISE_EXECUTOR_WORKERS", config.executor_workers));
  config.max_connections = static_cast<size_t>(env_number("HYRISE_MAX_CONNECTIONS", config.max_connections));
  config.admission_capacity = env_number("HYRISE_ADMISSION_CAPACITY", config.admission_capacity);
  config.idle_timeout = std::chrono::seconds{env_number("HYRISE_IDLE_TIMEOUT_S", 0)};
  config.statement_timeout = std::chrono::milliseconds{env_number("HYRISE_STATEMENT_TIMEOUT_MS", 0)};
  config.per_query_memory_budget = env_number("HYRISE_QUERY_MEMORY_BUDGET", config.per_query_memory_budget);
  auto server = Server{config};
  const auto started = server.Start();
  if (!started.ok()) {
    std::cerr << "Cannot start server: " << started.error() << "\n";
    return 1;
  }
  std::cout << "Listening on 127.0.0.1:" << server.port() << " — connect with:\n"
            << "  psql -h 127.0.0.1 -p " << server.port() << "\nPress Ctrl-D to stop.\n";
  auto line = std::string{};
  while (std::getline(std::cin, line)) {
  }
  server.Stop();
  return 0;
}

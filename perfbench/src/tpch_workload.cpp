/// tpch-sf0.05: the 22 TPC-H queries as one serial stream on the calling
/// thread (immediate scheduler, MVCC off, plan and result cache off).
///
/// Untraced: in each of kRounds rounds, the data is set up (generation,
/// dictionary encoding, statistics, one warm-up pass) and then whole passes
/// over Q1..Q22 run through SqlPipeline for a share of the time. Traced: one
/// set-up split into its public calls, then untraced and traced passes
/// alternate; traced passes run each query stage by stage (staged.hpp).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarklib/tpch/tpch_queries.hpp"
#include "benchmarklib/tpch/tpch_table_generator.hpp"
#include "common.hpp"
#include "hyrise.hpp"
#include "optimizer/optimizer.hpp"
#include "optimizer/rules/expression_reduction_rule.hpp"
#include "optimizer/rules/predicate_pushdown_rule.hpp"
#include "optimizer/rules/predicate_split_up_rule.hpp"
#include "optimizer/rules/subquery_to_join_rule.hpp"
#include "sql/sql_pipeline.hpp"
#include "staged.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/table.hpp"

namespace perfbench {

namespace {

using hyrise::Hyrise;
using hyrise::Table;

constexpr auto kQueryCount = size_t{22};
/// The time UntracedPass reports for a query that failed.
constexpr auto kFailedNs = int64_t{-1};
/// The untraced run sets up this many times and measures passes after each
/// set-up for an equal share of --seconds. The geomean of the same queries
/// differed by up to a quarter between set-ups, even within one process, so
/// the per-query medians pool the passes of all set-ups: over five seeds,
/// query_geomean_ms then spread 2% (interquartile range over median) instead
/// of 10% with all passes after the last of three set-ups.
constexpr auto kRounds = 3;

/// Operators reported one by one; everything else is "other".
const std::vector<std::string> kReportedOperators = {"TableScan", "JoinHash",   "JoinSortMerge", "JoinNestedLoop",
                                                     "IndexScan", "Aggregate",  "Projection",    "Sort",
                                                     "Validate",  "Product",    "Limit",         "UnionAll"};

using Rows = std::vector<std::vector<std::string>>;

std::string QueryLabel(size_t query_id) {
  char label[8];
  std::snprintf(label, sizeof(label), "q%02zu", query_id);
  return label;
}

// --- Result formatting and comparison -----------------------------------------

std::string FormatCell(const hyrise::AllTypeVariant& value) {
  if (hyrise::VariantIsNull(value)) {
    return "NULL";
  }
  if (const auto* number = std::get_if<double>(&value)) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.15g", *number);
    return buffer;
  }
  if (const auto* number = std::get_if<float>(&value)) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.9g", static_cast<double>(*number));
    return buffer;
  }
  auto text = hyrise::VariantToString(value);
  // Cells are tab-separated, rows newline-separated.
  std::replace(text.begin(), text.end(), '\t', ' ');
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

Rows FormatRows(const Table& table) {
  auto rows = Rows{};
  for (const auto& row : table.GetRows()) {
    auto& cells = rows.emplace_back();
    for (const auto& value : row) {
      cells.push_back(FormatCell(value));
    }
  }
  return rows;
}

bool ParseNumber(const std::string& text, double& number) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  number = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

/// Numbers compare with a relative tolerance, so a different floating-point
/// summation order still matches; everything else compares exactly.
bool CellsMatch(const std::string& actual, const std::string& expected) {
  if (actual == expected) {
    return true;
  }
  auto actual_number = 0.0;
  auto expected_number = 0.0;
  if (!ParseNumber(actual, actual_number) || !ParseNumber(expected, expected_number)) {
    return false;
  }
  const auto scale = std::max({1.0, std::abs(actual_number), std::abs(expected_number)});
  return std::abs(actual_number - expected_number) <= 1e-6 * scale;
}

/// Rows compare in order: no expected answer (SF 0.01 or 0.05) has rows tied
/// under its ORDER BY, so any other order is a defect.
bool RowsMatch(const Rows& actual, const Rows& expected) {
  if (actual.size() != expected.size()) {
    return false;
  }
  for (auto row = size_t{0}; row < actual.size(); ++row) {
    if (actual[row].size() != expected[row].size()) {
      return false;
    }
    for (auto column = size_t{0}; column < actual[row].size(); ++column) {
      if (!CellsMatch(actual[row][column], expected[row][column])) {
        return false;
      }
    }
  }
  return true;
}

/// Expected-answer file: per query a header line "# qNN <rows> <columns>",
/// then one tab-separated line per row.
std::map<size_t, Rows> LoadExpected(const std::string& path) {
  auto expected = std::map<size_t, Rows>{};
  auto file = std::ifstream{path};
  auto line = std::string{};
  auto* current = static_cast<Rows*>(nullptr);
  while (std::getline(file, line)) {
    if (line.rfind("# q", 0) == 0) {
      current = &expected[static_cast<size_t>(std::stoul(line.substr(3, 2)))];
      continue;
    }
    if (!current) {
      continue;
    }
    auto& cells = current->emplace_back();
    auto stream = std::istringstream{line};
    auto cell = std::string{};
    while (std::getline(stream, cell, '\t')) {
      cells.push_back(cell);
    }
  }
  return expected;
}

void WriteExpected(const std::string& path, const std::vector<Rows>& results) {
  auto file = std::ofstream{path};
  for (auto query = size_t{0}; query < results.size(); ++query) {
    const auto& rows = results[query];
    file << "# " << QueryLabel(query + 1) << " " << rows.size() << " " << (rows.empty() ? 0 : rows[0].size())
         << "\n";
    for (const auto& row : rows) {
      for (auto column = size_t{0}; column < row.size(); ++column) {
        file << (column == 0 ? "" : "\t") << row[column];
      }
      file << "\n";
    }
  }
}

// --- Query execution ----------------------------------------------------------------

struct QueryRun {
  int64_t ns{0};
  bool ok{false};
  std::string error;
  std::shared_ptr<const Table> table;
};

/// One query through SqlPipeline with the workload's settings. A null
/// optimizer means the default rule set.
QueryRun RunPipeline(const std::string& sql, const std::shared_ptr<hyrise::Optimizer>& optimizer) {
  auto run = QueryRun{};
  const auto start = NowNs();
  auto builder = hyrise::SqlPipeline::Builder{sql};
  builder.WithMvcc(hyrise::UseMvcc::kNo).WithPqpCache(nullptr).WithResultCache(nullptr).UseScheduler(false);
  if (optimizer) {
    builder.WithOptimizer(optimizer);
  }
  auto pipeline = builder.Build();
  const auto status = pipeline.Execute();
  run.ns = NowNs() - start;
  run.ok = status == hyrise::SqlPipelineStatus::kSuccess;
  run.error = pipeline.error_message();
  // Q15 is CREATE VIEW; SELECT; DROP VIEW — the answer is the last table.
  for (const auto& table : pipeline.result_tables()) {
    if (table) {
      run.table = table;
    }
  }
  return run;
}

std::shared_ptr<hyrise::Optimizer> MinimalOptimizer() {
  auto optimizer = std::make_shared<hyrise::Optimizer>();
  optimizer->AddRule(std::make_shared<hyrise::ExpressionReductionRule>());
  optimizer->AddRule(std::make_shared<hyrise::PredicateSplitUpRule>());
  optimizer->AddRule(std::make_shared<hyrise::SubqueryToJoinRule>());
  optimizer->AddRule(std::make_shared<hyrise::PredicatePushdownRule>());
  return optimizer;
}

/// Compares one query's answer with the expected one; records a failure.
void CheckAnswer(size_t query_id, const std::shared_ptr<const Table>& table, const std::map<size_t, Rows>& expected,
                 const std::string& context, RunResult& result) {
  const auto entry = expected.find(query_id);
  if (entry == expected.end()) {
    result.Reject("no expected answer for " + QueryLabel(query_id));
    return;
  }
  if (!table) {
    result.Reject(context + " " + QueryLabel(query_id) + ": no result table");
    return;
  }
  if (!RowsMatch(FormatRows(*table), entry->second)) {
    result.Reject(context + " " + QueryLabel(query_id) + ": result differs from the expected answer");
  }
}

/// Counts a failed query. No TPC-H query fails on this engine, so a failure
/// also fails the run.
void RecordFailure(size_t query_id, const std::string& error, const std::string& context, RunResult& result) {
  ++result.failed;
  ++result.failures_by_sqlstate["engine:" + error.substr(0, 40)];
  result.Reject(context + " " + QueryLabel(query_id) + " failed: " + error);
}

/// One untraced pass over Q1..Q22; returns per-query nanoseconds, kFailedNs
/// for a query that failed.
std::vector<int64_t> UntracedPass(const std::map<size_t, Rows>& expected, const std::string& context,
                                  RunResult& result) {
  auto times = std::vector<int64_t>(kQueryCount, kFailedNs);
  for (auto query = size_t{1}; query <= kQueryCount; ++query) {
    const auto run = RunPipeline(hyrise::TpchQuery(query), nullptr);
    ++result.attempted;
    if (!run.ok) {
      RecordFailure(query, run.error, context, result);
      continue;
    }
    times[query - 1] = run.ns;
    CheckAnswer(query, run.table, expected, context, result);
  }
  return times;
}

/// Sum of a pass's query times, failed queries left out.
int64_t PassNs(const std::vector<int64_t>& times) {
  auto total = int64_t{0};
  for (const auto ns : times) {
    total += ns == kFailedNs ? 0 : ns;
  }
  return total;
}

hyrise::TpchConfig DataConfig(double scale_factor) {
  auto config = hyrise::TpchConfig{};
  config.scale_factor = scale_factor;
  return config;
}

/// Set-up with the generator defaults (dictionary encoding + statistics).
int64_t SetupDefault(double scale_factor) {
  Hyrise::Reset();
  const auto start = NowNs();
  hyrise::GenerateTpchTables(DataConfig(scale_factor));
  return NowNs() - start;
}

struct SplitSetup {
  int64_t generate_ns{0};
  int64_t encode_ns{0};
  int64_t statistics_ns{0};
  size_t unencoded_bytes{0};
  size_t encoded_bytes{0};
};

/// The same end state as SetupDefault, split into its public calls, each
/// under a span: generation unencoded and without statistics, then
/// ChunkEncoder::EncodeAllChunks, then the two statistics builders.
SplitSetup SetupSplit(double scale_factor, Tracer& tracer) {
  Hyrise::Reset();
  auto setup = SplitSetup{};
  auto config = DataConfig(scale_factor);
  const auto encoding = config.encoding;
  config.encoding = hyrise::SegmentEncodingSpec{hyrise::EncodingType::kUnencoded};
  config.generate_statistics = false;
  auto& storage_manager = Hyrise::Get().storage_manager;
  {
    const auto span = ScopedSpan{&tracer, "benchmarklib.generate"};
    hyrise::GenerateTpchTables(config);
  }
  auto tables = std::vector<std::shared_ptr<Table>>{};
  for (const auto& name : storage_manager.TableNames()) {
    tables.push_back(storage_manager.GetTable(name));
    setup.unencoded_bytes += tables.back()->MemoryUsage();
  }
  {
    const auto span = ScopedSpan{&tracer, "storage.encode"};
    for (const auto& table : tables) {
      hyrise::ChunkEncoder::EncodeAllChunks(table, encoding);
    }
  }
  for (const auto& table : tables) {
    setup.encoded_bytes += table->MemoryUsage();
  }
  {
    const auto span = ScopedSpan{&tracer, "statistics.build"};
    for (const auto& table : tables) {
      hyrise::GenerateChunkPruningStatistics(table);
      table->SetTableStatistics(hyrise::GenerateTableStatistics(*table));
    }
  }
  const auto totals = SummarizeSpans(tracer.spans());
  setup.generate_ns = totals.at("benchmarklib.generate").total_ns;
  setup.encode_ns = totals.at("storage.encode").total_ns;
  setup.statistics_ns = totals.at("statistics.build").total_ns;
  return setup;
}

double ScaleFactor(const Options& options) {
  return options.smoke ? 0.01 : 0.05;
}

RunResult WriteExpectedAnswers(const Options& options) {
  auto result = RunResult{};
  Hyrise::Reset();
  auto config = DataConfig(ScaleFactor(options));
  config.encoding = hyrise::SegmentEncodingSpec{hyrise::EncodingType::kUnencoded};
  config.generate_statistics = false;
  hyrise::GenerateTpchTables(config);
  const auto optimizer = MinimalOptimizer();
  auto answers = std::vector<Rows>{};
  for (auto query = size_t{1}; query <= kQueryCount; ++query) {
    const auto run = RunPipeline(hyrise::TpchQuery(query), optimizer);
    ++result.attempted;
    if (!run.ok || !run.table) {
      ++result.failed;
      result.Reject("reference engine failed on " + QueryLabel(query) + ": " + run.error);
      answers.emplace_back();
      continue;
    }
    answers.push_back(FormatRows(*run.table));
  }
  WriteExpected(options.write_expected_path, answers);
  result.metrics.push_back({"reference_queries", static_cast<double>(result.attempted), "count"});
  return result;
}

RunResult RunUntraced(const Options& options, const std::map<size_t, Rows>& expected, RunResult result) {
  const auto scale_factor = ScaleFactor(options);
  auto setup_s = std::vector<double>{};
  auto per_query = std::vector<std::vector<double>>(kQueryCount);
  // Each query's first quartile in each round: a round after a fast set-up
  // would otherwise supply the p25 of all rounds pooled.
  auto round_first_quartiles = std::vector<std::vector<double>>(kQueryCount);
  const auto rounds = options.smoke ? 1 : kRounds;
  const auto round_ns = static_cast<int64_t>(options.seconds * 1e9 / rounds);
  auto passes = 0;
  for (auto round = 0; round < rounds; ++round) {
    auto setup_ns = SetupDefault(scale_factor);
    // The warm-up pass belongs to set-up; its answers are checked too, but
    // its queries are not counted.
    auto warm_up = RunResult{};
    setup_ns += PassNs(UntracedPass(expected, "warm-up", warm_up));
    for (const auto& failure : warm_up.check_failures) {
      result.Reject(failure);
    }
    setup_s.push_back(static_cast<double>(setup_ns) / 1e9);

    const auto deadline = NowNs() + round_ns;
    auto round_start = std::vector<size_t>{};
    for (const auto& times : per_query) {
      round_start.push_back(times.size());
    }
    do {
      const auto times = UntracedPass(expected, "pass " + std::to_string(passes), result);
      for (auto query = size_t{0}; query < kQueryCount; ++query) {
        if (times[query] != kFailedNs) {
          per_query[query].push_back(static_cast<double>(times[query]) / 1e6);
        }
      }
      ++passes;
    } while (NowNs() < deadline);
    for (auto query = size_t{0}; query < kQueryCount; ++query) {
      const auto first = per_query[query].begin() + static_cast<std::ptrdiff_t>(round_start[query]);
      round_first_quartiles[query].push_back(Quantile({first, per_query[query].end()}, 0.25));
    }
  }

  auto all_ms = std::vector<double>{};
  auto medians = std::vector<double>{};
  auto first_quartiles = std::vector<double>{};
  auto pass_ms = std::vector<double>(static_cast<size_t>(passes), 0.0);
  for (auto query = size_t{0}; query < kQueryCount; ++query) {
    medians.push_back(Median(per_query[query]));
    first_quartiles.push_back(Median(round_first_quartiles[query]));
    result.report.push_back({"tpch." + QueryLabel(query + 1) + ".median_ms", medians.back(), "ms"});
    for (auto pass = size_t{0}; pass < per_query[query].size(); ++pass) {
      all_ms.push_back(per_query[query][pass]);
      // Only when a query failed (and the run is rejected) does a pass miss
      // a sample; then the pass sums are approximate.
      pass_ms[pass] += per_query[query][pass];
    }
  }
  result.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"query_geomean_ms", GeometricMean(medians), "ms"},
      // As on the wire workloads, the p25 of each kind of operation, here of
      // each query (the median over the rounds of its p25 in each round),
      // combined by geomean. The p25 of all query runs pooled falls between
      // two queries' clusters and jumped 14% from run to run.
      {"read_p25_ms", GeometricMean(first_quartiles), "ms"},
      {"txn_p25_ms", GeometricMean(first_quartiles), "ms"},
  };
  result.report.push_back({"read_p50_ms", Median(all_ms), "ms"});
  result.report.push_back({"txn_p50_ms", Median(all_ms), "ms"});
  // Throughput of the median pass: a pass slowed by host interference moves
  // one sample, not the result.
  result.report.push_back({"completed_per_s", static_cast<double>(kQueryCount) / (Median(pass_ms) / 1e3), "1/s"});
  result.report.push_back({"txn_p99_ms", Quantile(all_ms, 0.99), "ms"});
  result.report.push_back({"tpch.passes", static_cast<double>(passes), "count"});
  return result;
}

RunResult RunTraced(const Options& options, const std::map<size_t, Rows>& expected, RunResult result) {
  auto tracer = Tracer{};
  const auto setup = SetupSplit(ScaleFactor(options), tracer);
  UntracedPass(expected, "warm-up", result);
  result.attempted = 0;
  result.failed = 0;
  result.failures_by_sqlstate.clear();

  auto staged = StagedOptions{};
  staged.optimizer = hyrise::Optimizer::CreateDefault();
  auto untraced_pass_ns = std::vector<double>{};
  auto traced_pass_ns = std::vector<double>{};
  auto query_execute_ms = std::vector<std::vector<double>>(kQueryCount);
  auto rows_out = std::map<std::string, uint64_t>{};
  auto request_id = uint64_t{0};
  const auto min_passes = options.smoke ? 1 : 2;
  const auto deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  while (static_cast<int>(traced_pass_ns.size()) < min_passes || NowNs() < deadline) {
    untraced_pass_ns.push_back(static_cast<double>(PassNs(UntracedPass(expected, "untraced pass", result))));

    auto traced_ns = int64_t{0};
    for (auto query = size_t{1}; query <= kQueryCount; ++query) {
      const auto first_span = tracer.spans().size();
      const auto start = NowNs();
      auto run = StagedResult{};
      {
        const auto span = ScopedSpan{&tracer, "tpch." + QueryLabel(query), ++request_id};
        run = RunStaged(hyrise::TpchQuery(query), staged, &tracer);
      }
      ++result.attempted;
      if (!run.ok) {
        RecordFailure(query, run.error, "traced pass", result);
        continue;
      }
      traced_ns += NowNs() - start;
      CheckAnswer(query, run.tables.empty() ? nullptr : run.tables.back(), expected, "traced pass", result);
      auto execute_ns = int64_t{0};
      for (auto index = first_span; index < tracer.spans().size(); ++index) {
        if (tracer.spans()[index].name == "operators.execute") {
          execute_ns += tracer.spans()[index].duration_ns();
        }
      }
      query_execute_ms[query - 1].push_back(static_cast<double>(execute_ns) / 1e6);
      for (const auto& [name, rows] : run.rows_out) {
        rows_out[name] += rows;
      }
    }
    traced_pass_ns.push_back(static_cast<double>(traced_ns));
  }

  const auto passes = static_cast<double>(traced_pass_ns.size());
  const auto totals = SummarizeSpans(tracer.spans());
  const auto total_ns = [&](const std::string& name) {
    const auto entry = totals.find(name);
    return entry == totals.end() ? 0.0 : static_cast<double>(entry->second.total_ns);
  };

  auto query_ns = 0.0;
  for (auto query = size_t{1}; query <= kQueryCount; ++query) {
    query_ns += total_ns("tpch." + QueryLabel(query));
  }
  auto stage_ns = total_ns("sql.parse") + total_ns("sql.translate") + total_ns("optimizer.optimize") +
                  total_ns("lqp.translate");
  auto operator_self_ns = std::map<std::string, double>{};
  for (const auto& [name, entry] : totals) {
    if (name.rfind("operators.", 0) == 0 && name != "operators.execute") {
      const auto op = name.substr(10);
      const auto reported = std::find(kReportedOperators.begin(), kReportedOperators.end(), op) !=
                            kReportedOperators.end();
      operator_self_ns[reported ? op : "other"] += static_cast<double>(entry.self_ns);
      stage_ns += static_cast<double>(entry.self_ns);
    }
  }
  const auto attributed_share = query_ns > 0 ? stage_ns / query_ns : 0.0;
  const auto overhead_share = Median(traced_pass_ns) / Median(untraced_pass_ns) - 1.0;

  result.metrics = {
      {"benchmarklib.generate_s", static_cast<double>(setup.generate_ns) / 1e9, "s"},
      {"storage.table_mb", static_cast<double>(setup.encoded_bytes) / (1024.0 * 1024.0), "MB"},
      {"sql.stmt_parse_us", MeanMicros(totals, "sql.parse"), "us"},
      {"sql.stmt_translate_us", MeanMicros(totals, "sql.translate"), "us"},
      {"optimizer.stmt_optimize_us", MeanMicros(totals, "optimizer.optimize"), "us"},
      {"lqp.stmt_translate_us", MeanMicros(totals, "lqp.translate"), "us"},
      {"operators.stmt_execute_us", MeanMicros(totals, "operators.execute"), "us"},
      {"operators.attributed_share", attributed_share, "share"},
      {"scheduler.dispatch_us", MeanDispatchUs(options.smoke ? 100 : 2000), "us"},
      {"cache.pqp_hit_share", 0.0, "share"},
      {"tracing.overhead_share", overhead_share, "share"},
  };

  auto& report = result.report;
  report.push_back({"storage.encode_s", static_cast<double>(setup.encode_ns) / 1e9, "s"});
  report.push_back({"statistics.build_s", static_cast<double>(setup.statistics_ns) / 1e9, "s"});
  report.push_back({"storage.compression_ratio",
                    static_cast<double>(setup.unencoded_bytes) / static_cast<double>(setup.encoded_bytes), "ratio"});
  report.push_back({"sql.parse_ms", total_ns("sql.parse") / passes / 1e6, "ms"});
  report.push_back({"sql.translate_ms", total_ns("sql.translate") / passes / 1e6, "ms"});
  report.push_back({"optimizer.optimize_ms", total_ns("optimizer.optimize") / passes / 1e6, "ms"});
  report.push_back({"lqp.translate_ms", total_ns("lqp.translate") / passes / 1e6, "ms"});
  report.push_back({"operators.execute_ms", total_ns("operators.execute") / passes / 1e6, "ms"});
  for (const auto& op : kReportedOperators) {
    report.push_back({"operators." + op + ".self_ms", operator_self_ns[op] / passes / 1e6, "ms"});
    report.push_back({"operators." + op + ".rows_out", static_cast<double>(rows_out[op]) / passes, "rows"});
  }
  report.push_back({"operators.other.self_ms", operator_self_ns["other"] / passes / 1e6, "ms"});
  for (auto query = size_t{0}; query < kQueryCount; ++query) {
    report.push_back({"tpch." + QueryLabel(query + 1) + ".execute_ms", Median(query_execute_ms[query]), "ms"});
  }
  report.push_back({"tpch.traced_passes", passes, "count"});

  if (!options.trace_path.empty() && !WriteSpans(options.trace_path, {&tracer})) {
    result.Reject("cannot write spans to " + options.trace_path);
  }
  return result;
}

}  // namespace

RunResult RunTpch(const Options& options) {
  if (!options.write_expected_path.empty()) {
    return WriteExpectedAnswers(options);
  }
  auto result = RunResult{};
  const auto scale_factor = ScaleFactor(options);
  char scale[16];
  std::snprintf(scale, sizeof(scale), "%g", scale_factor);
  result.metadata = {{"scale_factor", scale},
                     {"scheduler", "immediate"},
                     {"mvcc", "off"},
                     {"plan_cache", "off"},
                     {"result_cache", "off"},
                     {"clients", "1"}};
  const auto expected = LoadExpected(options.expected_path);
  if (expected.size() != kQueryCount) {
    result.Reject("expected answers missing or incomplete: " + options.expected_path);
    return result;
  }
  return options.trace ? RunTraced(options, expected, std::move(result))
                       : RunUntraced(options, expected, std::move(result));
}

}  // namespace perfbench

/// Section 2.7 of the paper: the JIT specialization engine fuses all
/// operators between two pipeline breakers into one binary, removing virtual
/// calls, type switches, and intermediate materializations — "in some cases
/// a 22x performance improvement over the traditional, operator-based
/// approach, for example when complex expressions have to be calculated".
///
/// Two-contender sweep over the same complex-expression aggregation:
///   1. interpreted    — the SQL pipeline on the generic ExpressionEvaluator
///                       (one intermediate per expression node),
///   2. template-fused — the compile-time FusedScanAggregate baseline
///                       (pipeline shape known at build time), the upper
///                       bound of what fusing the pipeline can gain.
/// Both must compute the same sum (up to floating-point summation order).
///
/// Emits BENCH_jit.json.
///
/// Usage: jit_specialization [scale=1.0] [repetitions=5] [json=BENCH_jit.json]
///   scale 1.0 = 1,000,000 rows.

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "hyrise.hpp"
#include "operators/pipeline_fusion.hpp"
#include "sql/sql_pipeline.hpp"
#include "storage/table.hpp"
#include "types/all_type_variant.hpp"
#include "utils/assert.hpp"
#include "utils/timer.hpp"

namespace hyrise {

namespace {

const auto* kQuery = "SELECT SUM(a * b + a / c - (a + b) * (b - c)) FROM jit_bench WHERE a > 10.0";

std::shared_ptr<Table> BuildTable(size_t row_count) {
  auto table = std::make_shared<Table>(
      TableColumnDefinitions{{"a", DataType::kDouble}, {"b", DataType::kDouble}, {"c", DataType::kDouble}},
      TableType::kData, ChunkOffset{100'000});
  auto rng = std::mt19937{42};
  for (auto row = size_t{0}; row < row_count; ++row) {
    table->AppendRow({static_cast<double>(rng() % 1000) / 10.0, static_cast<double>(rng() % 1000) / 10.0,
                      static_cast<double>(rng() % 1000) / 10.0 + 1.0});
  }
  return table;
}

struct SqlRun {
  int64_t best_execute_ns{0};
  double result{0.0};
};

/// Executes the query `repetitions` times through `cache` (MVCC off: both
/// contenders see the same raw chunks) and keeps the fastest execution.
SqlRun MeasureSql(size_t repetitions, const std::shared_ptr<PqpCache>& cache) {
  auto run = SqlRun{};
  run.best_execute_ns = INT64_MAX;
  for (auto repetition = size_t{0}; repetition < repetitions; ++repetition) {
    auto pipeline = SqlPipeline::Builder{kQuery}.WithMvcc(UseMvcc::kNo).WithPqpCache(cache).Build();
    const auto status = pipeline.Execute();
    Assert(status == SqlPipelineStatus::kSuccess, pipeline.error_message());
    const auto& metrics = pipeline.metrics();
    if (metrics.execute_ns < run.best_execute_ns) {
      run.best_execute_ns = metrics.execute_ns;
    }
    const auto rows = pipeline.result_table()->GetRows();
    Assert(rows.size() == 1 && rows[0].size() == 1, "unexpected result shape");
    run.result = VariantCast<double>(rows[0][0]);
  }
  return run;
}

int64_t MeasureTemplateFused(size_t repetitions, const Table& table, double* result) {
  const auto columns = std::array<ColumnID, 3>{ColumnID{0}, ColumnID{1}, ColumnID{2}};
  const auto layout = ProbeFusedLayout<double, 3>(table, columns);
  auto best = int64_t{INT64_MAX};
  for (auto repetition = size_t{0}; repetition < repetitions; ++repetition) {
    auto timer = Timer{};
    auto sum = 0.0;
    FusedScanAggregate<double, 3>(
        table, columns, layout,
        [](const std::array<double, 3>& row) {
          return row[0] > 10.0;
        },
        [&](const std::array<double, 3>& row) {
          const auto a = row[0];
          const auto b = row[1];
          const auto c = row[2];
          sum += a * b + a / c - (a + b) * (b - c);
        });
    const auto elapsed = timer.Elapsed();
    best = std::min(best, elapsed);
    *result = sum;
  }
  return best;
}

}  // namespace

int Main(int argc, char** argv) {
  const auto scale = argc > 1 ? std::stod(argv[1]) : 1.0;
  const auto repetitions = argc > 2 ? static_cast<size_t>(std::stoul(argv[2])) : size_t{5};
  const auto json_path = argc > 3 ? std::string{argv[3]} : std::string{"BENCH_jit.json"};
  const auto row_count = static_cast<size_t>(1'000'000 * scale);

  Hyrise::Reset();
  std::cout << "Building jit_bench (" << row_count << " rows)...\n";
  const auto table = BuildTable(row_count);
  Hyrise::Get().storage_manager.AddTable("jit_bench", table);

  // 1. Interpreted: the cached plan runs on the ExpressionEvaluator-based
  // operators.
  const auto interpreted = MeasureSql(repetitions + 1, std::make_shared<PqpCache>(16));

  // 2. Template-fused baseline.
  auto fused_result = 0.0;
  const auto fused_ns = MeasureTemplateFused(repetitions, *table, &fused_result);
  Assert(std::abs(fused_result - interpreted.result) <= 1e-9 * std::abs(interpreted.result),
         "template-fused result differs from the interpreter");

  const auto to_ms = [](int64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  const auto speedup_fused = static_cast<double>(interpreted.best_execute_ns) / static_cast<double>(fused_ns);

  std::printf("\n%-24s %12s %9s\n", "contender", "best_ms", "speedup");
  std::printf("%-24s %12.3f %8.2fx\n", "interpreted", to_ms(interpreted.best_execute_ns), 1.0);
  std::printf("%-24s %12.3f %8.2fx\n", "template-fused", to_ms(fused_ns), speedup_fused);

  auto json = std::string{"{\n"};
  json += "  \"rows\": " + std::to_string(row_count) + ",\n";
  json += "  \"repetitions\": " + std::to_string(repetitions) + ",\n";
  json += "  \"query\": \"" + std::string{kQuery} + "\",\n";
  json += "  \"interpreted_ns\": " + std::to_string(interpreted.best_execute_ns) + ",\n";
  json += "  \"template_fused_ns\": " + std::to_string(fused_ns) + ",\n";
  json += "  \"template_fused_speedup\": " + std::to_string(speedup_fused) + "\n";
  json += "}\n";

  auto file = std::ofstream{json_path};
  file << json;
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}

}  // namespace hyrise

int main(int argc, char** argv) {
  return hyrise::Main(argc, argv);
}

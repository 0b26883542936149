/// TPC-H set-up, phase by phase and table by table: data generation (all
/// eight tables in one pass, unencoded and without statistics), then per
/// table dictionary encoding (ChunkEncoder::EncodeAllChunks), the per-chunk
/// pruning filters (GenerateChunkPruningStatistics) and the table statistics
/// (GenerateTableStatistics). Together these are the set-up that
/// GenerateTpchTables runs with its default configuration.
///
/// Emits BENCH_setup.json:
///   { "scale", "runs", "generate_ns", "peak_rss_mb",
///     "tables": [ {table, rows, encode_ns, pruning_ns, table_statistics_ns,
///                  table_bytes, filter_bytes}, ... ],
///     "total": {encode_ns, pruning_ns, table_statistics_ns, table_bytes,
///               filter_bytes} }
/// Times are medians over the runs. `filter_bytes` counts the pruning
/// filters' min-max bounds and counting quotient filter slots.
///
/// Usage: setup_split [scale_factor=0.05] [runs=3] [json=BENCH_setup.json]

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "benchmarklib/tpch/tpch_table_generator.hpp"
#include "hyrise.hpp"
#include "statistics/counting_quotient_filter.hpp"
#include "statistics/min_max_filter.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/table.hpp"
#include "utils/timer.hpp"

namespace hyrise {

namespace {

struct TableSplit {
  size_t rows{0};
  std::vector<int64_t> encode_ns;
  std::vector<int64_t> pruning_ns;
  std::vector<int64_t> table_statistics_ns;
  size_t table_bytes{0};
  size_t filter_bytes{0};
};

int64_t Median(std::vector<int64_t> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Bytes of the pruning filters of all chunks of `table`.
size_t FilterBytes(const Table& table) {
  auto bytes = size_t{0};
  for (auto chunk_id = ChunkID{0}; chunk_id < table.chunk_count(); ++chunk_id) {
    const auto& statistics = table.GetChunk(chunk_id)->pruning_statistics();
    if (!statistics) {
      continue;
    }
    for (auto column_id = ColumnID{0}; column_id < table.column_count(); ++column_id) {
      const auto* composite = dynamic_cast<const CompositeSegmentFilter*>((*statistics)[column_id].get());
      if (!composite) {
        continue;
      }
      ResolveDataType(table.column_data_type(column_id), [&](auto type_tag) {
        using T = decltype(type_tag);
        for (const auto& filter : composite->filters()) {
          if (const auto* cqf = dynamic_cast<const CountingQuotientFilter<T>*>(filter.get())) {
            bytes += sizeof(*cqf) + cqf->MemoryUsage();
          } else if (dynamic_cast<const MinMaxFilter<T>*>(filter.get())) {
            bytes += sizeof(MinMaxFilter<T>);
          }
        }
      });
    }
  }
  return bytes;
}

double PeakRssMb() {
  auto usage = rusage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

}  // namespace

int Main(int argc, char** argv) {
  const auto scale_factor = argc > 1 ? std::stod(argv[1]) : 0.05;
  const auto runs = argc > 2 ? static_cast<size_t>(std::stoul(argv[2])) : size_t{3};
  const auto json_path = argc > 3 ? std::string{argv[3]} : std::string{"BENCH_setup.json"};
  Assert(runs > 0, "setup_split needs at least one run");

  const auto encoding = TpchConfig{}.encoding;
  auto generate_ns = std::vector<int64_t>{};
  auto splits = std::map<std::string, TableSplit>{};
  for (auto run = size_t{0}; run < runs; ++run) {
    Hyrise::Reset();
    auto config = TpchConfig{};
    config.scale_factor = scale_factor;
    config.encoding = SegmentEncodingSpec{EncodingType::kUnencoded};
    config.generate_statistics = false;
    auto timer = Timer{};
    GenerateTpchTables(config);
    generate_ns.push_back(timer.Lap());

    auto& storage_manager = Hyrise::Get().storage_manager;
    for (const auto& name : storage_manager.TableNames()) {
      const auto table = storage_manager.GetTable(name);
      auto& split = splits[name];
      timer.Lap();
      ChunkEncoder::EncodeAllChunks(table, encoding);
      split.encode_ns.push_back(timer.Lap());
      GenerateChunkPruningStatistics(table);
      split.pruning_ns.push_back(timer.Lap());
      table->SetTableStatistics(GenerateTableStatistics(*table));
      split.table_statistics_ns.push_back(timer.Lap());
      split.rows = table->row_count();
      split.table_bytes = table->MemoryUsage();
      split.filter_bytes = FilterBytes(*table);
    }
  }
  Hyrise::Reset();

  auto json = std::string{"{\n  \"scale\": " + std::to_string(scale_factor) + ",\n  \"runs\": " +
                          std::to_string(runs) + ",\n  \"generate_ns\": " + std::to_string(Median(generate_ns)) +
                          ",\n  \"peak_rss_mb\": " + std::to_string(PeakRssMb()) + ",\n  \"tables\": [\n"};
  auto total_encode_ns = int64_t{0};
  auto total_pruning_ns = int64_t{0};
  auto total_table_statistics_ns = int64_t{0};
  auto total_table_bytes = size_t{0};
  auto total_filter_bytes = size_t{0};
  std::cout << "table         rows  encode_ms  pruning_ms  table_stats_ms  table_mb  filter_mb\n";
  for (const auto& [name, split] : splits) {
    const auto encode_ns = Median(split.encode_ns);
    const auto pruning_ns = Median(split.pruning_ns);
    const auto table_statistics_ns = Median(split.table_statistics_ns);
    total_encode_ns += encode_ns;
    total_pruning_ns += pruning_ns;
    total_table_statistics_ns += table_statistics_ns;
    total_table_bytes += split.table_bytes;
    total_filter_bytes += split.filter_bytes;

    char line[160];
    std::snprintf(line, sizeof(line), "%-10s %8zu %10.1f %11.1f %15.1f %9.2f %10.2f", name.c_str(), split.rows,
                  static_cast<double>(encode_ns) / 1e6, static_cast<double>(pruning_ns) / 1e6,
                  static_cast<double>(table_statistics_ns) / 1e6, static_cast<double>(split.table_bytes) / 1e6,
                  static_cast<double>(split.filter_bytes) / 1e6);
    std::cout << line << "\n";

    json += name == splits.begin()->first ? "    " : ",\n    ";
    json += "{\"table\": \"" + name + "\", \"rows\": " + std::to_string(split.rows) +
            ", \"encode_ns\": " + std::to_string(encode_ns) + ", \"pruning_ns\": " + std::to_string(pruning_ns) +
            ", \"table_statistics_ns\": " + std::to_string(table_statistics_ns) +
            ", \"table_bytes\": " + std::to_string(split.table_bytes) +
            ", \"filter_bytes\": " + std::to_string(split.filter_bytes) + "}";
  }
  json += "\n  ],\n  \"total\": {\"encode_ns\": " + std::to_string(total_encode_ns) +
          ", \"pruning_ns\": " + std::to_string(total_pruning_ns) +
          ", \"table_statistics_ns\": " + std::to_string(total_table_statistics_ns) +
          ", \"table_bytes\": " + std::to_string(total_table_bytes) +
          ", \"filter_bytes\": " + std::to_string(total_filter_bytes) + "}\n}\n";

  std::cout << "generate_ms " << static_cast<double>(Median(generate_ns)) / 1e6 << ", encode_ms "
            << static_cast<double>(total_encode_ns) / 1e6 << ", pruning_ms "
            << static_cast<double>(total_pruning_ns) / 1e6 << ", table_stats_ms "
            << static_cast<double>(total_table_statistics_ns) / 1e6 << ", peak_rss_mb " << PeakRssMb() << "\n";
  auto file = std::ofstream{json_path};
  file << json;
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}

}  // namespace hyrise

int main(int argc, char** argv) {
  return hyrise::Main(argc, argv);
}

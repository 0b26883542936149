/// Scan-kernel microbenchmarks: equality, BETWEEN-range, and IS NULL scans at
/// 1 M / 10 M rows over every encoding (unencoded, dictionary, frame of
/// reference, run length) and both vector compressions, with a selectivity
/// sweep {0.001, 0.1, 0.5}. The blockwise TableScan (128-value block decode,
/// branch-free bitmask kernels — DESIGN.md §5d) is compared against the
/// pre-block-decode per-element scan, reimplemented here verbatim as the
/// tracked baseline (per-element positional decode, branchy compare, matching
/// output assembly through ComposeFilteredSegments).
///
/// Five rows at 1 M rows cover the string predicates that run on dictionary
/// codes (dictionary/fixed, strings): column against column, an IN list, a
/// literal scan whose input is a scan's output (single-chunk pos lists), a
/// LIKE pattern of '%' and literal text on such an input, and column against
/// column on a selective scan's output over two mostly unique columns (few
/// rows against large dictionaries: compared per row, not rank-merged). Their
/// baseline is the former per-element path: the column decoded into
/// std::string values (DecodeSegmentAs), then a string compare, a hash-set
/// probe or the backtracking LIKE matcher per row.
///
/// Emits BENCH_scan.json so the scan-perf trajectory is machine-readable:
///   { "configs": [ {rows, encoding, vector_compression, predicate,
///                   target_selectivity, legacy_ns, blockwise_ns, speedup,
///                   output_rows}, ... ] }
///
/// Usage: scan_kernels [scale=1.0] [runs=2] [json=BENCH_scan.json]
///   scale multiplies the row counts (the CI smoke job runs scale=0.002).

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <unordered_set>
#include <vector>

#include "expression/expressions.hpp"
#include "expression/like_matcher.hpp"
#include "hyrise.hpp"
#include "operators/pos_list_utils.hpp"
#include "operators/table_scan.hpp"
#include "operators/table_wrapper.hpp"
#include "scheduler/job_helpers.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/dictionary_segment.hpp"
#include "storage/frame_of_reference_segment.hpp"
#include "storage/run_length_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"
#include "utils/timer.hpp"

namespace hyrise {

namespace {

constexpr auto kChunkSize = ChunkOffset{65535};

// Value distribution (spikes for equality selectivities, disjoint 1000-wide
// bands for range selectivities, ~2% NULLs):
//   50%   -> 250   (band [0, 999])
//   10%   -> 1250  (band [1000, 1999])
//   0.1%  -> 2250  (band [2000, 2999])
//   rest  -> 3000 + uniform[0, 1'000'000)  (distinct tail)
constexpr int32_t kValueHalf = 250;
constexpr int32_t kValueTenth = 1250;
constexpr int32_t kValueRare = 2250;

struct ScanPredicate {
  PredicateCondition condition;
  int32_t value;
  int32_t value2;  // Upper bound for BETWEEN, unused otherwise.
  double target_selectivity;
  const char* name;
};

const ScanPredicate kPredicates[] = {
    {PredicateCondition::kEquals, kValueHalf, 0, 0.5, "eq"},
    {PredicateCondition::kEquals, kValueTenth, 0, 0.1, "eq"},
    {PredicateCondition::kEquals, kValueRare, 0, 0.001, "eq"},
    {PredicateCondition::kBetweenInclusive, 0, 999, 0.5, "between"},
    {PredicateCondition::kBetweenInclusive, 1000, 1999, 0.1, "between"},
    {PredicateCondition::kBetweenInclusive, 2000, 2999, 0.001, "between"},
    {PredicateCondition::kIsNull, 0, 0, 0.02, "is_null"},
};

struct EncodingConfig {
  const char* name;
  bool encoded;
  SegmentEncodingSpec spec;
};

const EncodingConfig kEncodings[] = {
    {"unencoded", false, {}},
    {"dictionary/fixed", true, {EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger}},
    {"dictionary/bp128", true, {EncodingType::kDictionary, VectorCompressionType::kBitPacking128}},
    {"for/fixed", true, {EncodingType::kFrameOfReference, VectorCompressionType::kFixedWidthInteger}},
    {"for/bp128", true, {EncodingType::kFrameOfReference, VectorCompressionType::kBitPacking128}},
    {"runlength", true, {EncodingType::kRunLength, VectorCompressionType::kFixedWidthInteger}},
};

std::shared_ptr<TableWrapper> MakeScanTable(size_t row_count, const EncodingConfig& encoding) {
  auto rng = std::mt19937_64{42};
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"v", DataType::kInt, true}}, TableType::kData,
                                       kChunkSize);
  for (auto begin = size_t{0}; begin < row_count; begin += kChunkSize) {
    const auto end = std::min(row_count, begin + kChunkSize);
    auto values = std::vector<int32_t>(end - begin);
    auto nulls = std::vector<bool>(end - begin);
    for (auto index = size_t{0}; index < values.size(); ++index) {
      const auto draw = rng() % 1000;
      if (draw < 500) {
        values[index] = kValueHalf;
      } else if (draw < 600) {
        values[index] = kValueTenth;
      } else if (draw < 601) {
        values[index] = kValueRare;
      } else {
        values[index] = 3000 + static_cast<int32_t>(rng() % 1'000'000);
      }
      nulls[index] = rng() % 50 == 0;
    }
    table->AppendChunk(Segments{std::make_shared<ValueSegment<int32_t>>(std::move(values), std::move(nulls))});
  }
  if (encoding.encoded) {
    ChunkEncoder::EncodeAllChunks(table, encoding.spec);
  }
  auto wrapper = std::make_shared<TableWrapper>(table);
  wrapper->Execute();
  return wrapper;
}

bool EvaluatePredicate(const ScanPredicate& predicate, int32_t value) {
  switch (predicate.condition) {
    case PredicateCondition::kEquals:
      return value == predicate.value;
    case PredicateCondition::kBetweenInclusive:
      return value >= predicate.value && value <= predicate.value2;
    default:
      Fail("Unsupported condition in legacy scan bench");
  }
}

/// The pre-block-decode scan kernels, verbatim: one positional decode and one
/// branchy predicate evaluation per row. Dictionary scans still run on value
/// ids (two binary searches up front) but fetch each code individually
/// through the typed vector's per-element Get — for BitPacking128 that is
/// per-value bit arithmetic, exactly the pre-PR 5 behavior.
void LegacyScanChunk(const std::shared_ptr<const Table>& table, ChunkID chunk_id, const ScanPredicate& predicate,
                     std::vector<ChunkOffset>& matches) {
  const auto segment = table->GetChunk(chunk_id)->GetSegment(ColumnID{0});
  const auto is_null_scan = predicate.condition == PredicateCondition::kIsNull;

  if (const auto* value_segment = dynamic_cast<const ValueSegment<int32_t>*>(segment.get())) {
    const auto size = static_cast<size_t>(value_segment->size());
    const auto& values = value_segment->values();
    const auto& nulls = value_segment->null_values();
    for (auto offset = size_t{0}; offset < size; ++offset) {
      const auto is_null = !nulls.empty() && nulls[offset] != 0;
      if (is_null_scan ? is_null : (!is_null && EvaluatePredicate(predicate, values[offset]))) {
        matches.push_back(static_cast<ChunkOffset>(offset));
      }
    }
    return;
  }

  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<int32_t>*>(segment.get())) {
    const auto& dictionary = dictionary_segment->dictionary();
    const auto null_id = dictionary_segment->null_value_id();
    // Value ids in [lower, upper) match; IS NULL compares against null_id.
    auto lower = uint32_t{0};
    auto upper = uint32_t{0};
    if (!is_null_scan) {
      const auto from = predicate.value;
      const auto to = predicate.condition == PredicateCondition::kBetweenInclusive ? predicate.value2 : predicate.value;
      lower = static_cast<uint32_t>(std::lower_bound(dictionary.begin(), dictionary.end(), from) - dictionary.begin());
      upper = static_cast<uint32_t>(std::upper_bound(dictionary.begin(), dictionary.end(), to) - dictionary.begin());
    }
    ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
      const auto size = vector.size();
      for (auto offset = size_t{0}; offset < size; ++offset) {
        const auto code = vector.Get(offset);
        if (is_null_scan ? code == null_id : (code >= lower && code < upper)) {
          matches.push_back(static_cast<ChunkOffset>(offset));
        }
      }
    });
    return;
  }

  if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<int32_t>*>(segment.get())) {
    const auto& minima = for_segment->block_minima();
    const auto& nulls = for_segment->null_values();
    ResolveCompressedVector(for_segment->offset_values(), [&](const auto& vector) {
      const auto size = vector.size();
      for (auto offset = size_t{0}; offset < size; ++offset) {
        const auto is_null = !nulls.empty() && nulls[offset];
        if (is_null_scan) {
          if (is_null) {
            matches.push_back(static_cast<ChunkOffset>(offset));
          }
          continue;
        }
        const auto value = minima[offset / FrameOfReferenceSegment<int32_t>::kBlockSize] +
                           static_cast<int32_t>(vector.Get(offset));
        if (!is_null && EvaluatePredicate(predicate, value)) {
          matches.push_back(static_cast<ChunkOffset>(offset));
        }
      }
    });
    return;
  }

  if (const auto* run_length_segment = dynamic_cast<const RunLengthSegment<int32_t>*>(segment.get())) {
    const auto& values = run_length_segment->values();
    const auto& run_is_null = run_length_segment->run_is_null();
    const auto& end_positions = run_length_segment->end_positions();
    // Per-element evaluation while walking the runs — the shape of the old
    // iterator-based scan.
    auto run = size_t{0};
    const auto size = static_cast<size_t>(run_length_segment->size());
    for (auto offset = size_t{0}; offset < size; ++offset) {
      if (offset > end_positions[run]) {
        ++run;
      }
      const auto is_null = run_is_null[run];
      if (is_null_scan ? is_null : (!is_null && EvaluatePredicate(predicate, values[run]))) {
        matches.push_back(static_cast<ChunkOffset>(offset));
      }
    }
    return;
  }

  Fail("Unsupported segment type in legacy scan bench");
}

using ChunkScan = std::function<void(const std::shared_ptr<const Table>&, ChunkID, std::vector<ChunkOffset>&)>;

/// Full legacy scan: per-chunk parallel jobs, per-element kernels, and the
/// same reference-segment output assembly as the operator path.
size_t LegacyScanRows(const std::shared_ptr<const Table>& table, const ChunkScan& scan_chunk) {
  const auto chunk_count = table->chunk_count();
  auto matches_per_chunk = std::vector<std::vector<ChunkOffset>>(chunk_count);
  auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
  jobs.reserve(chunk_count);
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    jobs.push_back(std::make_shared<JobTask>([&, chunk_id] {
      scan_chunk(table, chunk_id, matches_per_chunk[chunk_id]);
    }));
  }
  SpawnAndWaitForTasks(jobs);

  auto row_count = size_t{0};
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    if (matches_per_chunk[chunk_id].empty()) {
      continue;
    }
    const auto segments = ComposeFilteredSegments(table, chunk_id, matches_per_chunk[chunk_id]);
    Assert(segments.size() == table->column_count(), "Unexpected output segment count");
    row_count += matches_per_chunk[chunk_id].size();
  }
  return row_count;
}

ExpressionPtr MakeScanExpression(const ScanPredicate& predicate) {
  const auto column = std::make_shared<PqpColumnExpression>(ColumnID{0}, DataType::kInt, true, "v");
  switch (predicate.condition) {
    case PredicateCondition::kIsNull:
      return std::make_shared<PredicateExpression>(PredicateCondition::kIsNull, Expressions{column});
    case PredicateCondition::kBetweenInclusive:
      return std::make_shared<PredicateExpression>(
          PredicateCondition::kBetweenInclusive,
          Expressions{column, std::make_shared<ValueExpression>(predicate.value),
                      std::make_shared<ValueExpression>(predicate.value2)});
    default:
      return std::make_shared<PredicateExpression>(
          predicate.condition, Expressions{column, std::make_shared<ValueExpression>(predicate.value)});
  }
}

// --- String predicates on dictionary codes -------------------------------

ExpressionPtr StringColumn(ColumnID column_id) {
  return std::make_shared<PqpColumnExpression>(column_id, DataType::kString, true, "s");
}

ExpressionPtr StringValue(const char* value) {
  return std::make_shared<ValueExpression>(std::string{value});
}

std::string Date(std::mt19937_64& rng) {
  char date[11];
  std::snprintf(date, sizeof(date), "%04d-%02d-%02d", 1992 + static_cast<int>(rng() % 7),
                1 + static_cast<int>(rng() % 12), 1 + static_cast<int>(rng() % 28));
  return date;
}

/// A lineitem/orders-like string table (dictionary/fixed): keep (int, 0..9),
/// two date columns, a 7-value mode column, a comment column of (mostly
/// unique) word sequences, ~2% of them "special ... requests", and a second
/// mostly unique note column.
std::shared_ptr<TableWrapper> MakeStringTable(size_t row_count) {
  static const char* kModes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"};
  static const char* kWords[] = {"carefully", "final", "deposits", "sleep", "quickly", "among", "the",
                                 "furiously", "ironic", "packages", "pending", "accounts", "regular", "express"};
  auto rng = std::mt19937_64{7};
  auto note_rng = std::mt19937_64{11};
  auto table = std::make_shared<Table>(
      TableColumnDefinitions{{"keep", DataType::kInt, false},
                             {"commit", DataType::kString, false},
                             {"receipt", DataType::kString, false},
                             {"mode", DataType::kString, false},
                             {"comment", DataType::kString, false},
                             {"note", DataType::kString, false}},
      TableType::kData, kChunkSize);
  for (auto row = size_t{0}; row < row_count; ++row) {
    auto comment = std::string{};
    for (auto word = 0; word < 6; ++word) {
      comment += kWords[rng() % std::size(kWords)];
      comment += ' ';
      if (word == 2 && rng() % 50 == 0) {
        comment += "special ";
      }
    }
    comment += "requests " + std::to_string(rng() % 100'000);
    auto note = std::string{kWords[note_rng() % std::size(kWords)]} + ' ' + std::to_string(note_rng() % 1'000'000);
    table->AppendRow({static_cast<int32_t>(rng() % 10), Date(rng), Date(rng), std::string{kModes[rng() % 7]},
                      std::move(comment), std::move(note)});
  }
  ChunkEncoder::EncodeAllChunks(table, {EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger});
  auto wrapper = std::make_shared<TableWrapper>(table);
  wrapper->Execute();
  return wrapper;
}

/// The former column-against-column scan: both sides decoded as std::strings,
/// then compared row by row.
template <uint16_t kLeft, uint16_t kRight>
void LegacyColumnLess(const std::shared_ptr<const Table>& table, ChunkID chunk_id, std::vector<ChunkOffset>& matches) {
  const auto chunk = table->GetChunk(chunk_id);
  const auto right = DecodeSegmentAs<std::string>(*chunk->GetSegment(ColumnID{kRight}));
  const auto left = DecodeSegmentAs<std::string>(*chunk->GetSegment(ColumnID{kLeft}));
  for (auto row = size_t{0}; row < left.values.size(); ++row) {
    if (!left.IsNull(row) && left.values[row] < right.values[row]) {
      matches.push_back(static_cast<ChunkOffset>(row));
    }
  }
}

/// Calls `predicate(value)` for every non-NULL row of a decoded string
/// column and appends the matching rows: the former per-row string scans.
template <typename Predicate>
void LegacyStringScan(const std::shared_ptr<const Table>& table, ChunkID chunk_id, ColumnID column_id,
                      const Predicate& predicate, std::vector<ChunkOffset>& matches) {
  const auto decoded = DecodeSegmentAs<std::string>(*table->GetChunk(chunk_id)->GetSegment(column_id));
  for (auto row = size_t{0}; row < decoded.values.size(); ++row) {
    if (!decoded.IsNull(row) && predicate(decoded.values[row])) {
      matches.push_back(static_cast<ChunkOffset>(row));
    }
  }
}

/// The former IN evaluation: every value probed in a hash set of the list.
void LegacyModeIn(const std::shared_ptr<const Table>& table, ChunkID chunk_id, std::vector<ChunkOffset>& matches) {
  static const auto kList = std::unordered_set<std::string>{"MAIL", "SHIP"};
  LegacyStringScan(table, chunk_id, ColumnID{3}, [](const std::string& value) {
    return kList.contains(value);
  }, matches);
}

/// The former literal scan on reference segments: one std::string per row.
void LegacyDateLess(const std::shared_ptr<const Table>& table, ChunkID chunk_id, std::vector<ChunkOffset>& matches) {
  const auto bound = std::string{"1995-01-01"};
  LegacyStringScan(table, chunk_id, ColumnID{1}, [&](const std::string& value) {
    return value < bound;
  }, matches);
}

/// The former LIKE on reference segments: the backtracking matcher per row.
void LegacyCommentNotLike(const std::shared_ptr<const Table>& table, ChunkID chunk_id,
                          std::vector<ChunkOffset>& matches) {
  LegacyStringScan(table, chunk_id, ColumnID{4}, [](const std::string& value) {
    return !LikeMatcher::MatchesWithBacktracking("%special%requests%", value);
  }, matches);
}

struct StringScanRow {
  const char* name;
  int32_t keep_below;  // Input: the output of `keep < keep_below` (single-chunk pos lists); 0: the stored table.
  std::function<ExpressionPtr()> predicate;
  void (*legacy)(const std::shared_ptr<const Table>&, ChunkID, std::vector<ChunkOffset>&);
};

const StringScanRow kStringRows[] = {
    {"str_col_lt_col", 0,
     [] {
       return std::make_shared<PredicateExpression>(PredicateCondition::kLessThan,
                                                    Expressions{StringColumn(ColumnID{1}), StringColumn(ColumnID{2})});
     },
     LegacyColumnLess<1, 2>},
    {"str_in_list", 0,
     [] {
       return std::make_shared<PredicateExpression>(
           PredicateCondition::kIn,
           Expressions{StringColumn(ColumnID{3}),
                       std::make_shared<ListExpression>(Expressions{StringValue("MAIL"), StringValue("SHIP")})});
     },
     LegacyModeIn},
    {"str_lt_on_ref", 5,
     [] {
       return std::make_shared<PredicateExpression>(PredicateCondition::kLessThan,
                                                    Expressions{StringColumn(ColumnID{1}), StringValue("1995-01-01")});
     },
     LegacyDateLess},
    {"not_like_pct_on_ref", 5,
     [] {
       return std::make_shared<PredicateExpression>(
           PredicateCondition::kNotLike, Expressions{StringColumn(ColumnID{4}), StringValue("%special%requests%")});
     },
     LegacyCommentNotLike},
    {"str_col_lt_col_on_selective_ref", 1,
     [] {
       return std::make_shared<PredicateExpression>(PredicateCondition::kLessThan,
                                                    Expressions{StringColumn(ColumnID{4}), StringColumn(ColumnID{5})});
     },
     LegacyColumnLess<4, 5>},
};

template <typename F>
int64_t MedianNs(size_t runs, const F& body) {
  auto times = std::vector<int64_t>{};
  times.reserve(runs);
  for (auto run = size_t{0}; run < runs; ++run) {
    auto timer = Timer{};
    body();
    times.push_back(timer.Elapsed());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int Main(int argc, char** argv) {
  const auto scale = argc > 1 ? std::stod(argv[1]) : 1.0;
  const auto runs = argc > 2 ? static_cast<size_t>(std::stoul(argv[2])) : size_t{2};
  const auto json_path = argc > 3 ? std::string{argv[3]} : std::string{"BENCH_scan.json"};

  Hyrise::Reset();

  auto json = std::string{"{\n  \"scale\": " + std::to_string(scale) + ",\n  \"runs\": " + std::to_string(runs) +
                          ",\n  \"configs\": [\n"};
  auto first_entry = true;

  std::cout << "      rows  encoding          pred     sel     legacy_ms  blockwise_ms  speedup\n";
  for (const auto base_rows : {size_t{1'000'000}, size_t{10'000'000}}) {
    const auto row_count = std::max(size_t{1000}, static_cast<size_t>(static_cast<double>(base_rows) * scale));
    for (const auto& encoding : kEncodings) {
      const auto input = MakeScanTable(row_count, encoding);
      const auto table = input->get_output();
      for (const auto& predicate : kPredicates) {
        auto blockwise_rows = size_t{0};
        const auto blockwise_ns = MedianNs(runs, [&] {
          auto scan = std::make_shared<TableScan>(input, MakeScanExpression(predicate));
          scan->Execute();
          blockwise_rows = scan->get_output()->row_count();
        });
        auto legacy_rows = size_t{0};
        const auto legacy_ns = MedianNs(runs, [&] {
          legacy_rows = LegacyScanRows(table, [&](const auto& chunk_table, ChunkID chunk_id, auto& matches) {
            LegacyScanChunk(chunk_table, chunk_id, predicate, matches);
          });
        });
        Assert(legacy_rows == blockwise_rows, "Legacy and blockwise scans disagree on the result size");

        const auto speedup = static_cast<double>(legacy_ns) / static_cast<double>(blockwise_ns);
        char line[160];
        std::snprintf(line, sizeof(line), "%10zu  %-17s %-8s %5.3f %12.2f %13.2f %7.2fx", row_count, encoding.name,
                      predicate.name, predicate.target_selectivity, static_cast<double>(legacy_ns) / 1e6,
                      static_cast<double>(blockwise_ns) / 1e6, speedup);
        std::cout << line << "\n";

        json += first_entry ? "    " : ",\n    ";
        first_entry = false;
        json += "{\"rows\": " + std::to_string(row_count) + ", \"encoding\": \"" + encoding.name +
                "\", \"predicate\": \"" + predicate.name +
                "\", \"target_selectivity\": " + std::to_string(predicate.target_selectivity) +
                ", \"legacy_ns\": " + std::to_string(legacy_ns) + ", \"blockwise_ns\": " + std::to_string(blockwise_ns) +
                ", \"speedup\": " + std::to_string(speedup) + ", \"output_rows\": " + std::to_string(blockwise_rows) +
                "}";
      }
    }
  }
  {
    const auto row_count = std::max(size_t{1000}, static_cast<size_t>(1'000'000.0 * scale));
    const auto stored = MakeStringTable(row_count);
    for (const auto& row : kStringRows) {
      auto input = std::shared_ptr<AbstractOperator>{stored};
      if (row.keep_below > 0) {
        input = std::make_shared<TableScan>(
            stored, std::make_shared<PredicateExpression>(
                        PredicateCondition::kLessThan,
                        Expressions{std::make_shared<PqpColumnExpression>(ColumnID{0}, DataType::kInt, false, "keep"),
                                    std::make_shared<ValueExpression>(row.keep_below)}));
        input->Execute();
      }
      const auto input_rows = input->get_output()->row_count();
      auto blockwise_rows = size_t{0};
      const auto blockwise_ns = MedianNs(runs, [&] {
        auto scan = std::make_shared<TableScan>(input, row.predicate());
        scan->Execute();
        blockwise_rows = scan->get_output()->row_count();
      });
      auto legacy_rows = size_t{0};
      const auto legacy_ns = MedianNs(runs, [&] {
        legacy_rows = LegacyScanRows(input->get_output(), row.legacy);
      });
      Assert(legacy_rows == blockwise_rows, "Legacy and dictionary-code scans disagree on the result size");

      const auto selectivity = static_cast<double>(blockwise_rows) / static_cast<double>(input_rows);
      const auto speedup = static_cast<double>(legacy_ns) / static_cast<double>(blockwise_ns);
      char line[160];
      std::snprintf(line, sizeof(line), "%10zu  %-17s %-31s %5.3f %12.2f %13.2f %7.2fx", input_rows,
                    "dictionary/fixed", row.name, selectivity, static_cast<double>(legacy_ns) / 1e6,
                    static_cast<double>(blockwise_ns) / 1e6, speedup);
      std::cout << line << "\n";

      json += ",\n    {\"rows\": " + std::to_string(input_rows) +
              ", \"encoding\": \"dictionary/fixed\", \"predicate\": \"" + row.name +
              "\", \"target_selectivity\": " + std::to_string(selectivity) +
              ", \"legacy_ns\": " + std::to_string(legacy_ns) + ", \"blockwise_ns\": " + std::to_string(blockwise_ns) +
              ", \"speedup\": " + std::to_string(speedup) + ", \"output_rows\": " + std::to_string(blockwise_rows) +
              "}";
    }
  }
  json += "\n  ]\n}\n";

  auto file = std::ofstream{json_path};
  file << json;
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}

}  // namespace hyrise

int main(int argc, char** argv) {
  return hyrise::Main(argc, argv);
}

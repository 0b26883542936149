#include "operators/aggregate.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <unordered_set>
#include <variant>

#include "operators/column_materializer.hpp"
#include "scheduler/job_helpers.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "utils/assert.hpp"
#include "utils/flat_hash_table.hpp"

namespace hyrise {

Aggregate::Aggregate(std::shared_ptr<AbstractOperator> input, std::vector<ColumnID> group_by_columns,
                     std::vector<AggregateColumnDefinition> aggregates)
    : AbstractOperator(OperatorType::kAggregate, std::move(input)),
      group_by_columns_(std::move(group_by_columns)),
      aggregates_(std::move(aggregates)) {}

std::string Aggregate::Description() const {
  return "Aggregate (" + std::to_string(group_by_columns_.size()) + " group columns, " +
         std::to_string(aggregates_.size()) + " aggregates)";
}

namespace {

/// Runs `body(range_index, begin, end)` as one task per chunk range
/// (paper §2.9). Each task writes only state indexed by its own range, so the
/// bodies need no synchronization; callers merge the partials in range order,
/// which keeps results identical between serial and parallel execution (the
/// reduction tree is fixed by the chunking, not by the scheduler). The range
/// start doubles as the cooperative cancellation checkpoint.
template <typename Body>
void ForEachRangeParallel(const CancellationToken& token, const std::vector<std::pair<size_t, size_t>>& ranges,
                          const Body& body) {
  auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
  jobs.reserve(ranges.size());
  for (auto range_id = size_t{0}; range_id < ranges.size(); ++range_id) {
    jobs.push_back(std::make_shared<JobTask>([range_id, &ranges, &body, &token] {
      token.ThrowIfCancelled();
      body(range_id, ranges[range_id].first, ranges[range_id].second);
    }));
  }
  SpawnAndWaitForTasks(jobs);
}

/// A decoded column of any supported type: one chunk's rows, or the values
/// of one chunk's groups.
using AnyMaterializedColumn =
    std::variant<MaterializedColumn<int32_t>, MaterializedColumn<int64_t>, MaterializedColumn<float>,
                 MaterializedColumn<double>, MaterializedColumn<std::string>>;

using AnyDictionaryView = std::variant<DictionaryView<int32_t>, DictionaryView<int64_t>, DictionaryView<float>,
                                       DictionaryView<double>, DictionaryView<std::string>>;

/// The value bits of one group value for a packed key. Signed ints and float
/// bit patterns are both injective into uint64, which is all a hash key
/// needs. -0.0 is packed as +0.0: SQL compares them equal, so they form one
/// group, as they do in a dictionary.
template <typename T>
uint64_t PackBits(const T& value) {
  if constexpr (std::is_floating_point_v<T>) {
    const auto normalized = value == T{0} ? T{0} : value;
    auto bits = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>{0};
    std::memcpy(&bits, &normalized, sizeof(normalized));
    return bits;
  } else {
    return static_cast<uint64_t>(static_cast<std::make_unsigned_t<T>>(value));
  }
}

/// Byte key: a length-delimited serialization in an arena, compared by
/// bytes with a precomputed hash. No per-row heap allocation.
struct ByteKey {
  const char* data{nullptr};
  uint32_t size{0};

  bool operator==(const ByteKey& other) const {
    return size == other.size && std::memcmp(data, other.data, size) == 0;
  }
};

/// Serializes one group value into the arena (length-prefixed to keep keys
/// unambiguous across columns; -0.0 as +0.0, see PackBits).
template <typename T>
void AppendKeyPart(std::vector<char>& arena, const T& value, bool is_null) {
  if (is_null) {
    arena.push_back('\x01');
    return;
  }
  arena.push_back('\x02');
  if constexpr (std::is_same_v<T, std::string>) {
    const auto size = static_cast<uint32_t>(value.size());
    arena.insert(arena.end(), reinterpret_cast<const char*>(&size), reinterpret_cast<const char*>(&size) + sizeof(size));
    arena.insert(arena.end(), value.data(), value.data() + value.size());
  } else {
    const auto normalized = (std::is_floating_point_v<T> && value == T{0}) ? T{0} : value;
    arena.insert(arena.end(), reinterpret_cast<const char*>(&normalized),
                 reinterpret_cast<const char*>(&normalized) + sizeof(normalized));
  }
}

/// How group values become one key. Packed: every column is fixed-width and
/// the value bits plus one NULL bit per column that holds NULLs fit a
/// uint64_t (one or two small columns, the common OLAP shape); column i's
/// bits start at `parts[i].first`, its NULL bit at `parts[i].second` (-1: no
/// NULLs). Otherwise keys are byte-serialized.
struct KeyLayout {
  bool packed{true};
  std::vector<std::pair<unsigned, int>> parts;
};

KeyLayout MakeKeyLayout(const std::vector<DataType>& types, const std::vector<bool>& has_nulls) {
  auto layout = KeyLayout{};
  auto total_bits = size_t{0};
  for (auto index = size_t{0}; index < types.size(); ++index) {
    if (types[index] == DataType::kString) {
      return KeyLayout{false, {}};
    }
    const auto value_shift = static_cast<unsigned>(total_bits);
    total_bits += (types[index] == DataType::kInt || types[index] == DataType::kFloat) ? 32 : 64;
    auto null_shift = -1;
    if (has_nulls[index]) {
      null_shift = static_cast<int>(total_bits);
      total_bits += 1;
    }
    layout.parts.emplace_back(value_shift, null_shift);
  }
  layout.packed = total_bits <= 64;
  return layout;
}

/// The hash and key of rows [0, row_count) of `columns` (one entry per group
/// column) under `layout`: a packed uint64_t, or a ByteKey into `arena`.
template <typename KeyT>
void BuildKeys(const std::vector<AnyMaterializedColumn>& columns, const KeyLayout& layout, size_t row_count,
               std::vector<uint64_t>& hashes, std::vector<KeyT>& keys, std::vector<char>& arena) {
  hashes.resize(row_count);
  keys.assign(row_count, KeyT{});
  if constexpr (std::is_same_v<KeyT, uint64_t>) {
    for (auto index = size_t{0}; index < columns.size(); ++index) {
      std::visit(
          [&](const auto& column) {
            using T = typename std::decay_t<decltype(column.values)>::value_type;
            if constexpr (!std::is_same_v<T, std::string>) {
              const auto [value_shift, null_shift] = layout.parts[index];
              for (auto row = size_t{0}; row < row_count; ++row) {
                if (column.IsNull(row)) {
                  keys[row] |= uint64_t{1} << null_shift;
                } else {
                  keys[row] |= PackBits(column.values[row]) << value_shift;
                }
              }
            }
          },
          columns[index]);
    }
    for (auto row = size_t{0}; row < row_count; ++row) {
      hashes[row] = MixHash(keys[row]);
    }
  } else {
    auto ends = std::vector<size_t>{};
    ends.reserve(row_count);
    for (auto row = size_t{0}; row < row_count; ++row) {
      for (const auto& any_column : columns) {
        std::visit(
            [&](const auto& column) {
              AppendKeyPart(arena, column.values[row], column.IsNull(row));
            },
            any_column);
      }
      ends.push_back(arena.size());
    }
    // Pointers only after the arena stopped growing.
    auto offset = size_t{0};
    for (auto row = size_t{0}; row < row_count; ++row) {
      const auto size = ends[row] - offset;
      keys[row] = ByteKey{arena.data() + offset, static_cast<uint32_t>(size)};
      hashes[row] = HashBytes(arena.data() + offset, size);
      offset = ends[row];
    }
  }
}

/// How many keys ahead inserts into a large key table prefetch its slots.
constexpr auto kPrefetchDistance = size_t{16};

/// One chunk's grouping: each row's local group id, and per group column
/// the value of each local group, in first-occurrence order.
struct ChunkGroups {
  std::vector<uint32_t> group_ids;
  std::vector<AnyMaterializedColumn> values;
  size_t group_count{0};
};

/// Groups a chunk whose group columns all have a DictionaryView on their
/// codes: a row's key is its columns' codes in mixed radix (column i's
/// dictionary size stands for NULL), which indexes a dense array when the
/// product of the radices is at most the chunk's row count, and a flat table
/// otherwise. Each group's values are looked up once from its codes. Returns
/// false, having done nothing, when a column has no view or the radices'
/// product exceeds 64 bits.
bool GroupOnCodes(const Chunk& chunk, const std::vector<ColumnID>& column_ids, const std::vector<DataType>& types,
                  size_t row_count, ChunkGroups& groups) {
  auto views = std::vector<AnyDictionaryView>{};
  views.reserve(column_ids.size());
  for (auto index = size_t{0}; index < column_ids.size(); ++index) {
    ResolveDataType(types[index], [&](auto type_tag) {
      using T = decltype(type_tag);
      if (auto view = ViewDictionary<T>(*chunk.GetSegment(column_ids[index]))) {
        views.emplace_back(std::move(*view));
      }
    });
  }
  if (views.size() != column_ids.size()) {
    return false;
  }
  auto strides = std::vector<uint64_t>(views.size());
  auto cardinality = uint64_t{1};
  for (auto index = size_t{0}; index < views.size(); ++index) {
    strides[index] = cardinality;
    const auto radix = std::visit(
        [](const auto& view) {
          return uint64_t{view.segment->dictionary().size()} + 1;
        },
        views[index]);
    if (__builtin_mul_overflow(cardinality, radix, &cardinality)) {
      return false;
    }
  }

  auto keys = std::vector<uint64_t>(row_count, 0);
  for (auto index = size_t{0}; index < views.size(); ++index) {
    const auto stride = strides[index];
    std::visit(
        [&](const auto& view) {
          ForEachViewCodeBlock(view, [&](const auto* codes, size_t count, size_t base) {
            for (auto offset = size_t{0}; offset < count; ++offset) {
              keys[base + offset] += static_cast<uint64_t>(codes[offset]) * stride;
            }
          });
        },
        views[index]);
  }

  constexpr auto kNoGroup = std::numeric_limits<uint32_t>::max();
  auto group_keys = std::vector<uint64_t>{};
  groups.group_ids.resize(row_count);
  if (cardinality <= row_count) {
    auto slots = std::vector<uint32_t>(cardinality, kNoGroup);
    for (auto row = size_t{0}; row < row_count; ++row) {
      auto& slot = slots[keys[row]];
      if (slot == kNoGroup) {
        slot = static_cast<uint32_t>(group_keys.size());
        group_keys.push_back(keys[row]);
      }
      groups.group_ids[row] = slot;
    }
  } else {
    auto slots = FlatHashMap<uint64_t, uint32_t>{};
    for (auto row = size_t{0}; row < row_count; ++row) {
      if (row + kPrefetchDistance < row_count) {
        slots.Prefetch(MixHash(keys[row + kPrefetchDistance]));
      }
      const auto [slot, inserted] = slots.FindOrInsert(MixHash(keys[row]), keys[row]);
      if (inserted) {
        *slot = static_cast<uint32_t>(group_keys.size());
        group_keys.push_back(keys[row]);
      }
      groups.group_ids[row] = *slot;
    }
  }

  groups.group_count = group_keys.size();
  for (auto index = size_t{0}; index < views.size(); ++index) {
    std::visit(
        [&](const auto& view) {
          using T = typename std::decay_t<decltype(view.segment->dictionary())>::value_type;
          const auto& dictionary = view.segment->dictionary();
          const auto radix = uint64_t{dictionary.size()} + 1;
          auto column = MaterializedColumn<T>{};
          column.values.resize(groups.group_count);
          auto null_rows = std::vector<size_t>{};
          for (auto group = size_t{0}; group < groups.group_count; ++group) {
            const auto code = (group_keys[group] / strides[index]) % radix;
            if (code == dictionary.size()) {
              null_rows.push_back(group);
            } else {
              column.values[group] = dictionary[code];
            }
          }
          column.MarkNulls(null_rows);
          groups.values.emplace_back(std::move(column));
        },
        views[index]);
  }
  return true;
}

/// Local group ids of rows [0, row_count) of `columns` by hashing their keys;
/// returns the first row of each group.
template <typename KeyT>
std::vector<size_t> GroupRows(const std::vector<AnyMaterializedColumn>& columns, const KeyLayout& layout,
                              size_t row_count, std::vector<uint32_t>& group_ids) {
  auto hashes = std::vector<uint64_t>{};
  auto keys = std::vector<KeyT>{};
  auto arena = std::vector<char>{};
  BuildKeys(columns, layout, row_count, hashes, keys, arena);
  auto map = FlatHashMap<KeyT, uint32_t>{};
  auto first_rows = std::vector<size_t>{};
  group_ids.resize(row_count);
  for (auto row = size_t{0}; row < row_count; ++row) {
    const auto [value, inserted] = map.FindOrInsert(hashes[row], keys[row]);
    if (inserted) {
      *value = static_cast<uint32_t>(first_rows.size());
      first_rows.push_back(row);
    }
    group_ids[row] = *value;
  }
  return first_rows;
}

/// Groups a chunk on its decoded values: packed keys where they fit (see
/// KeyLayout; decided on this chunk's NULLs), byte keys otherwise.
void GroupOnValues(const Chunk& chunk, const std::vector<ColumnID>& column_ids, const std::vector<DataType>& types,
                   size_t row_count, ChunkGroups& groups) {
  auto columns = std::vector<AnyMaterializedColumn>{};
  auto has_nulls = std::vector<bool>{};
  for (auto index = size_t{0}; index < column_ids.size(); ++index) {
    ResolveDataType(types[index], [&](auto type_tag) {
      using T = decltype(type_tag);
      auto column = DecodeSegmentAs<T>(*chunk.GetSegment(column_ids[index]), row_count);
      has_nulls.push_back(!column.nulls.empty());
      columns.emplace_back(std::move(column));
    });
  }
  const auto layout = MakeKeyLayout(types, has_nulls);
  const auto first_rows = layout.packed ? GroupRows<uint64_t>(columns, layout, row_count, groups.group_ids)
                                        : GroupRows<ByteKey>(columns, layout, row_count, groups.group_ids);
  groups.group_count = first_rows.size();
  for (const auto& any_column : columns) {
    std::visit(
        [&](const auto& column) {
          using T = typename std::decay_t<decltype(column.values)>::value_type;
          auto values = MaterializedColumn<T>{};
          values.values.reserve(first_rows.size());
          auto null_rows = std::vector<size_t>{};
          for (const auto row : first_rows) {
            if (column.IsNull(row)) {
              null_rows.push_back(values.values.size());
            }
            values.values.push_back(column.values[row]);
          }
          values.MarkNulls(null_rows);
          groups.values.emplace_back(std::move(values));
        },
        any_column);
  }
}

/// Where a global group first occurs: its chunk range and local group id.
struct GroupSource {
  uint32_t range{0};
  uint32_t local{0};
};

/// One node of the grouping merge tree: the flat key table, the groups in
/// first-occurrence order, and — for every chunk range this node covers — the
/// translation from that range's local group ids to this node's ids.
template <typename KeyT>
struct GroupMergeNode {
  struct Group {
    uint64_t hash{0};
    KeyT key{};
    GroupSource source;
  };

  FlatHashMap<KeyT, uint32_t> map{};
  std::vector<Group> groups;
  std::vector<std::pair<size_t, std::vector<uint32_t>>> translations;
};

/// Folds `from` into `into` (which covers strictly earlier chunk ranges):
/// unseen keys are appended in `from`'s group order, and all of `from`'s
/// range translations are remapped into `into`'s id space.
template <typename KeyT>
void MergeGroupNodes(GroupMergeNode<KeyT>& into, GroupMergeNode<KeyT>& from) {
  auto remap = std::vector<uint32_t>(from.groups.size());
  into.groups.reserve(into.groups.size() + from.groups.size());
  for (auto index = size_t{0}; index < from.groups.size(); ++index) {
    if (index + kPrefetchDistance < from.groups.size()) {
      into.map.Prefetch(from.groups[index + kPrefetchDistance].hash);
    }
    auto& group = from.groups[index];
    const auto [value, inserted] = into.map.FindOrInsert(group.hash, group.key);
    if (inserted) {
      *value = static_cast<uint32_t>(into.groups.size());
      into.groups.push_back(std::move(group));
    }
    remap[index] = *value;
  }
  for (auto& [range_id, translation] : from.translations) {
    for (auto& local : translation) {
      local = remap[local];
    }
    into.translations.emplace_back(range_id, std::move(translation));
  }
  from.groups.clear();
  from.translations.clear();
}

/// Merges the chunks' local groups by value: each range's groups are keyed
/// under `layout` (parallel), then a fixed binary merge tree folds every
/// later range into an earlier one (parallel within each level). So the
/// global group order is first-occurrence row order — identical to a serial
/// scan, independent of the scheduler. A chunk's local groups have distinct
/// values, so a leaf starts as the identity, and only a leaf that others
/// are folded into (even index, not the last) fills its key table. Returns
/// each range's translation from local to global group ids and appends each
/// global group's first occurrence to `sources`.
template <typename KeyT>
std::vector<std::vector<uint32_t>> MergeGroups(const CancellationToken& token,
                                               const std::vector<std::pair<size_t, size_t>>& ranges,
                                               const std::vector<ChunkGroups>& chunks, const KeyLayout& layout,
                                               std::vector<GroupSource>& sources) {
  const auto range_count = ranges.size();
  auto arenas = std::vector<std::vector<char>>(range_count);  // Outlive the tree: the ByteKeys point into them.
  auto nodes = std::vector<GroupMergeNode<KeyT>>(range_count);
  ForEachRangeParallel(token, ranges, [&](size_t range_id, size_t /*begin*/, size_t /*end*/) {
    const auto& chunk = chunks[range_id];
    auto& node = nodes[range_id];
    auto hashes = std::vector<uint64_t>{};
    auto keys = std::vector<KeyT>{};
    BuildKeys(chunk.values, layout, chunk.group_count, hashes, keys, arenas[range_id]);
    const auto merged_into = range_id % 2 == 0 && range_id + 1 < range_count;
    if (merged_into) {
      // Sized for every range the node will cover, [range_id, range_id +
      // its lowest set bit), range 0 all: the table never grows.
      const auto covered_end = range_id == 0 ? range_count : std::min(range_count, range_id + (range_id & -range_id));
      auto covered_groups = size_t{0};
      for (auto covered = range_id; covered < covered_end; ++covered) {
        covered_groups += chunks[covered].group_count;
      }
      node.map = FlatHashMap<KeyT, uint32_t>{covered_groups};
    }
    auto translation = std::vector<uint32_t>(chunk.group_count);
    node.groups.reserve(chunk.group_count);
    for (auto local = uint32_t{0}; local < chunk.group_count; ++local) {
      if (merged_into) {
        if (local + kPrefetchDistance < chunk.group_count) {
          node.map.Prefetch(hashes[local + kPrefetchDistance]);
        }
        *node.map.FindOrInsert(hashes[local], keys[local]).first = local;
      }
      node.groups.push_back({hashes[local], keys[local], GroupSource{static_cast<uint32_t>(range_id), local}});
      translation[local] = local;
    }
    node.translations.emplace_back(range_id, std::move(translation));
  });

  for (auto step = size_t{1}; step < range_count; step *= 2) {
    auto jobs = std::vector<std::function<void()>>{};
    for (auto index = size_t{0}; index + step < range_count; index += 2 * step) {
      jobs.emplace_back([index, step, &nodes] {
        MergeGroupNodes(nodes[index], nodes[index + step]);
      });
    }
    SpawnAndWaitForJobs(std::move(jobs));
  }

  auto& merged = nodes[0];
  sources.reserve(merged.groups.size());
  for (const auto& group : merged.groups) {
    sources.push_back(group.source);
  }
  auto translations = std::vector<std::vector<uint32_t>>(range_count);
  for (auto& [range_id, translation] : merged.translations) {
    translations[range_id] = std::move(translation);
  }
  return translations;
}

/// One aggregate's partial results, indexed by group id.
template <typename T>
struct AggregateState {
  using Sum = std::conditional_t<std::is_integral_v<T>, int64_t, double>;

  std::vector<int64_t> counts;  // Non-NULL inputs (rows, for COUNT(*)); 0 makes SUM, AVG, MIN and MAX NULL.
  std::vector<Sum> sums;
  std::vector<T> extrema;
  std::vector<std::unordered_set<T>> distinct;

  void Resize(AggregateFunction function, size_t group_count) {
    counts.assign(group_count, 0);
    if (function == AggregateFunction::kSum || function == AggregateFunction::kAvg) {
      sums.assign(group_count, Sum{0});
    } else if (function == AggregateFunction::kMin || function == AggregateFunction::kMax) {
      extrema.assign(group_count, T{});
    } else if (function == AggregateFunction::kCountDistinct) {
      distinct.assign(group_count, {});
    }
  }
};

using AnyAggregateState = std::variant<AggregateState<int32_t>, AggregateState<int64_t>, AggregateState<float>,
                                       AggregateState<double>, AggregateState<std::string>>;

/// Calls `update(row, group)` for each row of `column` that is not NULL,
/// `group` being the row's group id. Without NULLs the loop tests nothing.
template <typename T, typename Update>
void ForEachNonNullRow(const MaterializedColumn<T>& column, const std::vector<uint32_t>& group_ids,
                       const Update& update) {
  const auto row_count = group_ids.size();
  if (column.nulls.empty()) {
    for (auto row = size_t{0}; row < row_count; ++row) {
      update(row, group_ids[row]);
    }
    return;
  }
  for (auto row = size_t{0}; row < row_count; ++row) {
    if (!column.nulls[row]) {
      update(row, group_ids[row]);
    }
  }
}

/// Adds one chunk's decoded input column to `state`, row i to group
/// `group_ids[i]`. NULL inputs are skipped.
template <typename T>
void Accumulate(AggregateFunction function, AggregateState<T>& state, const MaterializedColumn<T>& column,
                const std::vector<uint32_t>& group_ids) {
  const auto& values = column.values;
  switch (function) {
    case AggregateFunction::kCount:
      ForEachNonNullRow(column, group_ids, [&](size_t /*row*/, uint32_t group) {
        ++state.counts[group];
      });
      return;
    case AggregateFunction::kSum:
    case AggregateFunction::kAvg:
      if constexpr (std::is_arithmetic_v<T>) {
        ForEachNonNullRow(column, group_ids, [&](size_t row, uint32_t group) {
          state.sums[group] += static_cast<typename AggregateState<T>::Sum>(values[row]);
          ++state.counts[group];
        });
        return;
      }
      Fail("SUM/AVG over string column");
    case AggregateFunction::kMin:
    case AggregateFunction::kMax: {
      const auto is_min = function == AggregateFunction::kMin;
      ForEachNonNullRow(column, group_ids, [&](size_t row, uint32_t group) {
        if (state.counts[group] == 0 ||
            (is_min ? values[row] < state.extrema[group] : state.extrema[group] < values[row])) {
          state.extrema[group] = values[row];
        }
        ++state.counts[group];
      });
      return;
    }
    case AggregateFunction::kCountDistinct:
      ForEachNonNullRow(column, group_ids, [&](size_t row, uint32_t group) {
        state.distinct[group].insert(values[row]);
      });
      return;
  }
  Fail("Unhandled AggregateFunction");
}

/// Folds one range's partial results into `into`, its local group i into
/// group `translation[i]`.
template <typename T>
void MergeState(AggregateFunction function, AggregateState<T>& into, AggregateState<T>& from,
                const std::vector<uint32_t>& translation) {
  const auto is_min = function == AggregateFunction::kMin;
  for (auto local = size_t{0}; local < translation.size(); ++local) {
    const auto group = translation[local];
    switch (function) {
      case AggregateFunction::kCount:
        break;
      case AggregateFunction::kSum:
      case AggregateFunction::kAvg:
        into.sums[group] += from.sums[local];
        break;
      case AggregateFunction::kMin:
      case AggregateFunction::kMax:
        if (from.counts[local] > 0 &&
            (into.counts[group] == 0 || (is_min ? from.extrema[local] < into.extrema[group]
                                                : into.extrema[group] < from.extrema[local]))) {
          into.extrema[group] = std::move(from.extrema[local]);
        }
        break;
      case AggregateFunction::kCountDistinct:
        into.distinct[group].merge(from.distinct[local]);
        break;
    }
    into.counts[group] += from.counts[local];
  }
}

/// The output column of one aggregate.
template <typename T>
std::shared_ptr<AbstractSegment> MakeAggregateSegment(AggregateFunction function, AggregateState<T>& state) {
  const auto group_count = state.counts.size();
  auto nulls = std::vector<bool>(group_count);
  auto any_null = false;
  for (auto group = size_t{0}; group < group_count; ++group) {
    nulls[group] = state.counts[group] == 0;
    any_null |= nulls[group];
  }
  if (!any_null) {
    nulls.clear();
  }
  switch (function) {
    case AggregateFunction::kCount:
      return std::make_shared<ValueSegment<int64_t>>(std::move(state.counts));
    case AggregateFunction::kCountDistinct: {
      auto counts = std::vector<int64_t>(group_count);
      for (auto group = size_t{0}; group < group_count; ++group) {
        counts[group] = static_cast<int64_t>(state.distinct[group].size());
      }
      return std::make_shared<ValueSegment<int64_t>>(std::move(counts));
    }
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return std::make_shared<ValueSegment<T>>(std::move(state.extrema), std::move(nulls));
    case AggregateFunction::kSum:
      if constexpr (std::is_integral_v<T>) {
        return std::make_shared<ValueSegment<int64_t>>(std::move(state.sums), std::move(nulls));
      } else {
        return std::make_shared<ValueSegment<double>>(std::move(state.sums), std::move(nulls));
      }
    case AggregateFunction::kAvg: {
      auto averages = std::vector<double>(group_count, 0.0);
      for (auto group = size_t{0}; group < group_count; ++group) {
        if (state.counts[group] > 0) {
          averages[group] = static_cast<double>(state.sums[group]) / static_cast<double>(state.counts[group]);
        }
      }
      return std::make_shared<ValueSegment<double>>(std::move(averages), std::move(nulls));
    }
  }
  Fail("Unhandled AggregateFunction");
}

}  // namespace

std::shared_ptr<const Table> Aggregate::OnExecute(const std::shared_ptr<TransactionContext>& /*context*/) {
  const auto input = left_input_->get_output();
  const auto ranges = ChunkRowRanges(*input);
  const auto range_count = ranges.size();
  const auto& token = cancellation_token_;

  auto group_types = std::vector<DataType>{};
  for (const auto column_id : group_by_columns_) {
    group_types.push_back(input->column_data_type(column_id));
  }
  // The distinct aggregate input columns, each with the aggregates over it.
  auto inputs = std::vector<std::pair<ColumnID, std::vector<size_t>>>{};
  for (auto index = size_t{0}; index < aggregates_.size(); ++index) {
    const auto& column = aggregates_[index].column;
    if (!column) {
      continue;
    }
    auto input_iter = std::find_if(inputs.begin(), inputs.end(), [&](const auto& entry) {
      return entry.first == *column;
    });
    if (input_iter == inputs.end()) {
      input_iter = inputs.insert(inputs.end(), {*column, {}});
    }
    input_iter->second.push_back(index);
  }

  // --- Phase 1, per chunk: local groups, then every aggregate's partials. ---
  // A chunk whose group columns all read as dictionary codes groups on the
  // codes; any other chunk groups on its decoded values. Each aggregate input
  // column is decoded once and feeds every aggregate over it.
  auto chunk_groups = std::vector<ChunkGroups>(range_count);
  auto chunk_states = std::vector<std::vector<AnyAggregateState>>(range_count);
  ForEachRangeParallel(token, ranges, [&](size_t range_id, size_t begin, size_t end) {
    const auto row_count = end - begin;
    if (row_count == 0) {
      return;
    }
    const auto chunk = input->GetChunk(ChunkID{static_cast<uint32_t>(range_id)});
    auto& groups = chunk_groups[range_id];
    if (!GroupOnCodes(*chunk, group_by_columns_, group_types, row_count, groups)) {
      GroupOnValues(*chunk, group_by_columns_, group_types, row_count, groups);
    }
    auto& states = chunk_states[range_id];
    states.resize(aggregates_.size());
    for (auto index = size_t{0}; index < aggregates_.size(); ++index) {
      if (!aggregates_[index].column) {
        auto& state = states[index].emplace<AggregateState<int64_t>>();
        state.Resize(AggregateFunction::kCount, groups.group_count);
        for (const auto group : groups.group_ids) {
          ++state.counts[group];
        }
      }
    }
    for (const auto& [column_id, aggregate_indices] : inputs) {
      ResolveDataType(input->column_data_type(column_id), [&](auto type_tag) {
        using T = decltype(type_tag);
        const auto column = DecodeSegmentAs<T>(*chunk->GetSegment(column_id), row_count);
        for (const auto index : aggregate_indices) {
          auto& state = states[index].template emplace<AggregateState<T>>();
          state.Resize(aggregates_[index].function, groups.group_count);
          Accumulate(aggregates_[index].function, state, column, groups.group_ids);
        }
      });
    }
  });

  // --- Phase 2: merge the chunks' groups by value. --------------------------
  auto sources = std::vector<GroupSource>{};
  auto translations = std::vector<std::vector<uint32_t>>{};
  if (range_count == 1) {
    // One chunk: its local groups are the groups.
    translations.emplace_back(chunk_groups[0].group_count);
    for (auto local = uint32_t{0}; local < chunk_groups[0].group_count; ++local) {
      translations[0][local] = local;
      sources.push_back(GroupSource{0, local});
    }
  } else if (range_count > 1) {
    auto has_nulls = std::vector<bool>(group_by_columns_.size(), false);
    for (const auto& groups : chunk_groups) {
      for (auto index = size_t{0}; index < groups.values.size(); ++index) {
        has_nulls[index] = has_nulls[index] || std::visit(
                                                   [](const auto& column) {
                                                     return !column.nulls.empty();
                                                   },
                                                   groups.values[index]);
      }
    }
    const auto layout = MakeKeyLayout(group_types, has_nulls);
    translations = layout.packed ? MergeGroups<uint64_t>(token, ranges, chunk_groups, layout, sources)
                                 : MergeGroups<ByteKey>(token, ranges, chunk_groups, layout, sources);
  }
  // Without GROUP BY there is one group, even over empty input.
  const auto group_count = group_by_columns_.empty() ? size_t{1} : sources.size();

  // --- Phase 3: output schema. ----------------------------------------------
  auto definitions = TableColumnDefinitions{};
  for (const auto column_id : group_by_columns_) {
    definitions.push_back(input->column_definitions()[column_id]);
  }
  for (const auto& aggregate : aggregates_) {
    auto name = std::string{AggregateFunctionToString(aggregate.function)};
    auto data_type = DataType::kLong;
    if (aggregate.column.has_value()) {
      const auto input_type = input->column_data_type(*aggregate.column);
      name += "(" + input->column_name(*aggregate.column) + ")";
      switch (aggregate.function) {
        case AggregateFunction::kMin:
        case AggregateFunction::kMax:
          data_type = input_type;
          break;
        case AggregateFunction::kSum:
          Assert(input_type != DataType::kString, "SUM over string column");
          data_type = (input_type == DataType::kInt || input_type == DataType::kLong) ? DataType::kLong
                                                                                      : DataType::kDouble;
          break;
        case AggregateFunction::kAvg:
          data_type = DataType::kDouble;
          break;
        case AggregateFunction::kCount:
        case AggregateFunction::kCountDistinct:
          data_type = DataType::kLong;
          break;
      }
    } else {
      name += "(*)";
    }
    definitions.emplace_back(name, data_type, /*nullable=*/true);
  }

  auto output = std::make_shared<Table>(definitions, TableType::kData);
  auto segments = Segments{};

  // --- Phase 4: group columns, from each group's first occurrence. ----------
  for (auto index = size_t{0}; index < group_by_columns_.size(); ++index) {
    ResolveDataType(group_types[index], [&](auto type_tag) {
      using T = decltype(type_tag);
      auto values = std::vector<T>(group_count);
      auto nulls = std::vector<bool>(group_count, false);
      auto any_null = false;
      for (auto group = size_t{0}; group < group_count; ++group) {
        const auto [range, local] = sources[group];
        const auto& column = std::get<MaterializedColumn<T>>(chunk_groups[range].values[index]);
        if (column.IsNull(local)) {
          nulls[group] = true;
          any_null = true;
        } else {
          values[group] = column.values[local];
        }
      }
      segments.push_back(
          std::make_shared<ValueSegment<T>>(std::move(values), any_null ? std::move(nulls) : std::vector<bool>{}));
    });
  }

  // --- Phase 5: aggregates, partials merged in chunk order. -----------------
  // The floating-point reduction tree is a function of the chunking alone, so
  // serial and parallel runs produce bit-identical sums.
  for (auto index = size_t{0}; index < aggregates_.size(); ++index) {
    const auto& aggregate = aggregates_[index];
    const auto type = aggregate.column ? input->column_data_type(*aggregate.column) : DataType::kLong;
    const auto function = aggregate.column ? aggregate.function : AggregateFunction::kCount;
    ResolveDataType(type, [&](auto type_tag) {
      using T = decltype(type_tag);
      auto state = AggregateState<T>{};
      state.Resize(function, group_count);
      for (auto range_id = size_t{0}; range_id < translations.size(); ++range_id) {
        if (!translations[range_id].empty()) {
          MergeState(function, state, std::get<AggregateState<T>>(chunk_states[range_id][index]),
                     translations[range_id]);
        }
      }
      segments.push_back(MakeAggregateSegment(function, state));
    });
  }

  output->AppendChunk(std::move(segments));
  return output;
}

}  // namespace hyrise

#include "operators/join_hash.hpp"

#include <optional>

#include "expression/expressions.hpp"
#include "operators/column_materializer.hpp"
#include "operators/pos_list_utils.hpp"
#include "scheduler/job_helpers.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"
#include "utils/bloom_filter.hpp"
#include "utils/flat_hash_table.hpp"

namespace hyrise {

namespace {

/// One non-NULL key occurrence: its precomputed hash and global row index.
/// 16 bytes — the partitioning passes stream these sequentially.
struct PartitionEntry {
  uint64_t hash{0};
  uint32_t row{0};
};

/// A side's keys, radix-partitioned by the low bits of the hash. Partition p
/// occupies entries[begin[p], begin[p + 1]); within a partition, entries are
/// in ascending global row order (the scatter below walks chunk ranges in
/// order and rows within a range in order).
struct PartitionedKeys {
  std::vector<PartitionEntry> entries;
  std::vector<size_t> begin;
};

/// Enough partitions that one build table stays cache-resident (~8 K entries
/// ≈ a few hundred KB of slots + chain links), capped so the fan-out does not
/// degenerate into task confetti on small inputs.
size_t ChooseRadixBits(size_t build_row_count) {
  auto bits = size_t{0};
  while (bits < 10 && (build_row_count >> bits) > 8192) {
    ++bits;
  }
  return bits;
}

/// Two-pass parallel radix partitioning: per-chunk histograms, serial prefix
/// sums into per-(range, partition) cursors, then a per-chunk scatter into
/// one contiguous entry array. NULL keys are dropped — they never match; the
/// probe side handles its NULL rows separately. Each key is hashed exactly
/// once, in the histogram pass.
template <typename K>
PartitionedKeys PartitionByHash(const MaterializedColumn<K>& keys,
                                const std::vector<std::pair<size_t, size_t>>& ranges, size_t partition_count) {
  const auto mask = partition_count - 1;
  const auto range_count = ranges.size();

  auto hashes = std::vector<uint64_t>(keys.values.size());
  auto histograms = std::vector<std::vector<size_t>>(range_count);
  {
    auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
    jobs.reserve(range_count);
    for (auto range_id = size_t{0}; range_id < range_count; ++range_id) {
      jobs.push_back(std::make_shared<JobTask>([range_id, mask, partition_count, &ranges, &keys, &hashes,
                                                &histogram = histograms[range_id]] {
        histogram.assign(partition_count, 0);
        const auto [begin, end] = ranges[range_id];
        for (auto row = begin; row < end; ++row) {
          if (keys.IsNull(row)) {
            continue;
          }
          const auto hash = HashKey(keys.values[row]);
          hashes[row] = hash;
          ++histogram[hash & mask];
        }
      }));
    }
    SpawnAndWaitForTasks(jobs);
  }

  auto partitioned = PartitionedKeys{};
  partitioned.begin.assign(partition_count + 1, 0);
  for (auto partition = size_t{0}; partition < partition_count; ++partition) {
    auto total = partitioned.begin[partition];
    for (const auto& histogram : histograms) {
      total += histogram[partition];
    }
    partitioned.begin[partition + 1] = total;
  }
  partitioned.entries.resize(partitioned.begin.back());

  // cursors[range][partition]: where that range's scatter writes next.
  auto cursors = std::vector<std::vector<size_t>>(range_count, std::vector<size_t>(partition_count));
  for (auto partition = size_t{0}; partition < partition_count; ++partition) {
    auto offset = partitioned.begin[partition];
    for (auto range_id = size_t{0}; range_id < range_count; ++range_id) {
      cursors[range_id][partition] = offset;
      offset += histograms[range_id][partition];
    }
  }

  {
    auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
    jobs.reserve(range_count);
    for (auto range_id = size_t{0}; range_id < range_count; ++range_id) {
      jobs.push_back(std::make_shared<JobTask>([range_id, mask, &ranges, &keys, &hashes, &partitioned,
                                                &cursor = cursors[range_id]] {
        const auto [begin, end] = ranges[range_id];
        for (auto row = begin; row < end; ++row) {
          if (keys.IsNull(row)) {
            continue;
          }
          const auto hash = hashes[row];
          partitioned.entries[cursor[hash & mask]++] = PartitionEntry{hash, static_cast<uint32_t>(row)};
        }
      }));
    }
    SpawnAndWaitForTasks(jobs);
  }
  return partitioned;
}

/// Sentinel in the per-partition matched-row stream marking a left-outer
/// padding emission (distinct from kPaddingRow, which is size_t-wide).
constexpr uint32_t kNoMatch = 0xffffffffu;

}  // namespace

JoinHash::JoinHash(std::shared_ptr<AbstractOperator> left, std::shared_ptr<AbstractOperator> right, JoinMode mode,
                   JoinOperatorPredicate primary, std::vector<JoinOperatorPredicate> secondary)
    : AbstractJoinOperator(OperatorType::kJoinHash, std::move(left), std::move(right), mode, primary,
                           std::move(secondary)) {
  Assert(primary.condition == PredicateCondition::kEquals, "JoinHash requires an equality primary predicate");
  Assert(mode == JoinMode::kInner || mode == JoinMode::kLeft || mode == JoinMode::kSemi || mode == JoinMode::kAnti,
         "JoinHash supports Inner, Left, Semi, Anti");
}

// Radix-partitioned hash join (DESIGN.md §5c). Pipeline, each stage one task
// per chunk or per partition:
//
//   1. materialize both key columns, casting arithmetic promotions inside the
//      per-chunk materialization job (keys are written exactly once);
//   2. radix-partition both sides by the low bits of the key hash;
//   3. per partition: build a flat open-addressing table (offset-linked rows
//      in one contiguous array, no per-key vector heads) plus a Bloom filter
//      over the build hashes;
//   4. per partition: probe, with the Bloom filter short-circuiting rows
//      whose key cannot be on the build side, recording per-probe-row match
//      counts and the matched build rows;
//   5. prefix-sum the match counts into output offsets and scatter each
//      partition's matches into the final buffers.
//
// Output order is deterministic and identical to a serial probe loop: rows
// are emitted in ascending probe-row order (offsets come from the prefix sum
// over probe rows), and within one probe row the matches follow the build
// table's chain order, which is ascending build-row order because partitions
// preserve row order and chains append at the tail.
std::shared_ptr<const Table> JoinHash::OnExecute(const std::shared_ptr<TransactionContext>& /*context*/) {
  const auto left = left_input_->get_output();
  const auto right = right_input_->get_output();

  const auto key_type = PromoteDataTypes(left->column_data_type(primary_.left_column),
                                         right->column_data_type(primary_.right_column));

  auto left_rows = std::vector<size_t>{};
  auto right_rows = std::vector<size_t>{};

  const auto checker = JoinPredicateChecker{secondary_, *left, *right};
  const auto emit_pairs = mode_ == JoinMode::kInner || mode_ == JoinMode::kLeft;

  Assert(left->row_count() < kNoMatch && right->row_count() < kNoMatch,
         "JoinHash supports at most 2^32 - 2 rows per side");

  ResolveDataType(key_type, [&](auto type_tag) {
    using K = decltype(type_tag);

    const auto build_keys = MaterializeColumnAs<K>(*right, primary_.right_column);
    const auto probe_keys = MaterializeColumnAs<K>(*left, primary_.left_column);
    const auto probe_row_count = probe_keys.values.size();

    const auto partition_count = size_t{1} << ChooseRadixBits(build_keys.values.size());
    const auto build_partitions = PartitionByHash(build_keys, ChunkRowRanges(*right), partition_count);
    const auto probe_partitions = PartitionByHash(probe_keys, ChunkRowRanges(*left), partition_count);

    // --- Build: one flat table + Bloom filter per partition. ----------------
    auto tables = std::vector<std::optional<JoinHashTable<K>>>(partition_count);
    auto filters = std::vector<std::optional<BloomFilter>>(partition_count);
    {
      auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
      jobs.reserve(partition_count);
      for (auto partition = size_t{0}; partition < partition_count; ++partition) {
        jobs.push_back(std::make_shared<JobTask>([partition, &build_partitions, &build_keys, &tables, &filters] {
          const auto begin = build_partitions.begin[partition];
          const auto end = build_partitions.begin[partition + 1];
          auto& table = tables[partition].emplace(end - begin);
          auto& filter = filters[partition].emplace(end - begin);
          for (auto index = begin; index < end; ++index) {
            const auto& entry = build_partitions.entries[index];
            table.Insert(entry.hash, build_keys.values[entry.row], entry.row);
            filter.Insert(entry.hash);
          }
        }));
      }
      SpawnAndWaitForTasks(jobs);
    }

    // --- Probe: one task per partition pair. --------------------------------
    // Each task records, for its own probe rows, how many output rows the row
    // produces (match_counts) and — for Inner/Left — the matched build rows in
    // chain order (kNoMatch = left-outer padding). Semi/Anti only need the
    // counts: the emitted row is the probe row itself.
    auto match_counts = std::vector<uint32_t>(probe_row_count, 0);
    auto matched_rows = std::vector<std::vector<uint32_t>>(partition_count);
    {
      auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
      jobs.reserve(partition_count);
      for (auto partition = size_t{0}; partition < partition_count; ++partition) {
        jobs.push_back(std::make_shared<JobTask>([this, partition, emit_pairs, &probe_partitions, &probe_keys,
                                                  &tables, &filters, &checker, &match_counts, &matched_rows] {
          const auto& table = *tables[partition];
          const auto& filter = *filters[partition];
          auto& matches = matched_rows[partition];
          const auto begin = probe_partitions.begin[partition];
          const auto end = probe_partitions.begin[partition + 1];
          for (auto index = begin; index < end; ++index) {
            const auto& entry = probe_partitions.entries[index];
            auto chain = JoinHashTable<K>::kEnd;
            if (filter.MaybeContains(entry.hash)) {
              chain = table.First(entry.hash, probe_keys.values[entry.row]);
            }
            if (emit_pairs) {
              auto count = uint32_t{0};
              while (chain != JoinHashTable<K>::kEnd) {
                const auto& candidate = table.entry(chain);
                if (checker.AlwaysTrue() || checker.Passes(entry.row, candidate.row)) {
                  matches.push_back(candidate.row);
                  ++count;
                }
                chain = candidate.next;
              }
              if (count == 0 && mode_ == JoinMode::kLeft) {
                matches.push_back(kNoMatch);
                count = 1;
              }
              match_counts[entry.row] = count;
            } else {
              auto matched = false;
              while (chain != JoinHashTable<K>::kEnd && !matched) {
                const auto& candidate = table.entry(chain);
                matched = checker.AlwaysTrue() || checker.Passes(entry.row, candidate.row);
                chain = candidate.next;
              }
              match_counts[entry.row] = matched == (mode_ == JoinMode::kSemi) ? 1 : 0;
            }
          }
        }));
      }
      SpawnAndWaitForTasks(jobs);
    }

    // NULL probe keys never enter a partition; Left pads them, Anti emits
    // them, Inner/Semi drop them.
    if (!probe_keys.nulls.empty() && (mode_ == JoinMode::kLeft || mode_ == JoinMode::kAnti)) {
      for (auto row = size_t{0}; row < probe_row_count; ++row) {
        if (probe_keys.IsNull(row)) {
          match_counts[row] = 1;
        }
      }
    }

    // --- Merge in probe-row order: prefix sum + per-partition scatter. ------
    auto offsets = std::vector<size_t>(probe_row_count + 1, 0);
    for (auto row = size_t{0}; row < probe_row_count; ++row) {
      offsets[row + 1] = offsets[row] + match_counts[row];
    }
    left_rows.resize(offsets.back());
    if (emit_pairs) {
      right_rows.resize(offsets.back());
    }

    {
      auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
      jobs.reserve(partition_count);
      for (auto partition = size_t{0}; partition < partition_count; ++partition) {
        jobs.push_back(std::make_shared<JobTask>([partition, emit_pairs, &probe_partitions, &match_counts,
                                                  &matched_rows, &offsets, &left_rows, &right_rows] {
          const auto& matches = matched_rows[partition];
          auto cursor = size_t{0};
          const auto begin = probe_partitions.begin[partition];
          const auto end = probe_partitions.begin[partition + 1];
          for (auto index = begin; index < end; ++index) {
            const auto row = probe_partitions.entries[index].row;
            const auto count = match_counts[row];
            for (auto emit = size_t{0}; emit < count; ++emit) {
              const auto output = offsets[row] + emit;
              left_rows[output] = row;
              if (emit_pairs) {
                const auto match = matches[cursor++];
                right_rows[output] = match == kNoMatch ? kPaddingRow : match;
              }
            }
          }
        }));
      }
      SpawnAndWaitForTasks(jobs);
    }

    if (!probe_keys.nulls.empty() && (mode_ == JoinMode::kLeft || mode_ == JoinMode::kAnti)) {
      for (auto row = size_t{0}; row < probe_row_count; ++row) {
        if (probe_keys.IsNull(row)) {
          left_rows[offsets[row]] = row;
          if (emit_pairs) {
            right_rows[offsets[row]] = kPaddingRow;
          }
        }
      }
    }
  });

  return BuildOutput(left, right, left_rows, right_rows);
}

}  // namespace hyrise

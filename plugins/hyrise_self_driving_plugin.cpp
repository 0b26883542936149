/// Example plugin (paper §3): a slice of the envisioned self-driving
/// database (§3.2) packaged as a dynamically loadable library. On Start() it
/// acts as a physical-design advisor over all registered tables:
///
///   - encoding selection per segment (paper: "automatic selection of
///     efficient encoding and compression schemes per chunk"): long runs →
///     run-length; low distinct counts → dictionary; dense integer domains →
///     frame-of-reference; otherwise the segment is left unencoded,
///   - index selection: group-key indexes on low-cardinality
///     dictionary-encoded segments (cheap to build, broadly useful).
///
/// The plugin only uses public interfaces — it could be moved into the core
/// without modification, and the core runs identically without it (§3.1).

#include <iostream>
#include <unordered_set>

#include "hyrise.hpp"
#include "plugin/abstract_plugin.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/dictionary_segment.hpp"
#include "storage/index/abstract_chunk_index.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"

namespace hyrise {

namespace {

struct SegmentProfile {
  size_t row_count{0};
  size_t distinct_count{0};
  size_t run_count{0};
  bool integral{false};
  // Smallest and largest non-NULL value of an integral segment.
  int64_t min{0};
  int64_t max{0};
};

template <typename T>
SegmentProfile ProfileSegment(const AbstractSegment& segment) {
  auto profile = SegmentProfile{};
  profile.integral = std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>;
  const auto decoded = DecodeSegmentAs<T>(segment);
  profile.row_count = decoded.values.size();
  auto distinct = std::unordered_set<T>{};
  const T* previous = nullptr;
  for (auto offset = size_t{0}; offset < decoded.values.size(); ++offset) {
    if (decoded.IsNull(offset)) {
      continue;
    }
    const auto& value = decoded.values[offset];
    distinct.insert(value);
    if (!previous || !(value == *previous)) {
      ++profile.run_count;
    }
    if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
      // Seeded from the first non-NULL value.
      profile.min = previous ? std::min<int64_t>(profile.min, value) : value;
      profile.max = previous ? std::max<int64_t>(profile.max, value) : value;
    }
    previous = &value;
  }
  profile.distinct_count = distinct.size();
  return profile;
}

SegmentEncodingSpec ChooseEncoding(const SegmentProfile& profile) {
  if (profile.row_count == 0) {
    return SegmentEncodingSpec{EncodingType::kUnencoded};
  }
  if (profile.run_count * 4 < profile.row_count) {
    return SegmentEncodingSpec{EncodingType::kRunLength};
  }
  if (profile.distinct_count * 2 < profile.row_count) {
    return SegmentEncodingSpec{EncodingType::kDictionary};
  }
  // The range in uint64_t: max - min overflows int64_t for wide BIGINT domains.
  if (profile.integral &&
      static_cast<uint64_t>(profile.max) - static_cast<uint64_t>(profile.min) < (uint64_t{1} << 20)) {
    return SegmentEncodingSpec{EncodingType::kFrameOfReference};
  }
  return SegmentEncodingSpec{EncodingType::kUnencoded};
}

}  // namespace

class SelfDrivingPlugin final : public AbstractPlugin {
 public:
  std::string Name() const final {
    return "SelfDrivingPlugin";
  }

  void Start() final {
    auto& storage_manager = Hyrise::Get().storage_manager;
    auto encoded_segments = size_t{0};
    auto created_indexes = size_t{0};

    for (const auto& table_name : storage_manager.TableNames()) {
      const auto table = storage_manager.GetTable(table_name);
      const auto chunk_count = table->chunk_count();
      for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
        const auto chunk = table->GetChunk(chunk_id);
        if (chunk->IsMutable()) {
          continue;  // Encodings apply to immutable chunks only (§2.2).
        }
        for (auto column_id = ColumnID{0}; column_id < chunk->column_count(); ++column_id) {
          const auto data_type = table->column_data_type(column_id);
          auto profile = SegmentProfile{};
          ResolveDataType(data_type, [&](auto type_tag) {
            using T = decltype(type_tag);
            profile = ProfileSegment<T>(*chunk->GetSegment(column_id));
          });
          const auto spec = ChooseEncoding(profile);
          chunk->ReplaceSegment(column_id,
                                ChunkEncoder::EncodeSegment(chunk->GetSegment(column_id), data_type, spec));
          ++encoded_segments;

          // Index advisor: low-cardinality dictionary segments get a
          // group-key index (paper §2.4 / [16]).
          if (spec.encoding_type == EncodingType::kDictionary &&
              profile.distinct_count * 20 < profile.row_count &&
              chunk->GetIndexes({column_id}).empty()) {
            chunk->AddIndex({column_id},
                            CreateChunkIndex(ChunkIndexType::kGroupKey, chunk->GetSegment(column_id)));
            ++created_indexes;
          }
        }
      }
    }
    std::cout << "[SelfDrivingPlugin] re-encoded " << encoded_segments << " segments, created " << created_indexes
              << " group-key indexes\n";
  }

  void Stop() final {}
};

}  // namespace hyrise

extern "C" hyrise::AbstractPlugin* hyrise_plugin_create() {
  return new hyrise::SelfDrivingPlugin();
}

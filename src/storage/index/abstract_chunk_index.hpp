#ifndef HYRISE_SRC_STORAGE_INDEX_ABSTRACT_CHUNK_INDEX_HPP_
#define HYRISE_SRC_STORAGE_INDEX_ABSTRACT_CHUNK_INDEX_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "storage/abstract_segment.hpp"
#include "types/all_type_variant.hpp"
#include "types/types.hpp"

namespace hyrise {

enum class ChunkIndexType { kAdaptiveRadixTree, kBTree, kGroupKey };

const char* ChunkIndexTypeToString(ChunkIndexType type);

/// A secondary index over one segment of one (immutable) chunk (paper §2.4:
/// "indexes return qualifying positions for a certain predicate directly
/// without scanning through the data"; built per chunk so that inserts never
/// require index maintenance). NULLs are not indexed.
class AbstractChunkIndex {
 public:
  AbstractChunkIndex(ChunkIndexType type, DataType data_type) : type_(type), data_type_(data_type) {}

  AbstractChunkIndex(const AbstractChunkIndex&) = delete;
  AbstractChunkIndex& operator=(const AbstractChunkIndex&) = delete;
  virtual ~AbstractChunkIndex() = default;

  ChunkIndexType type() const {
    return type_;
  }

  DataType data_type() const {
    return data_type_;
  }

  /// Appends the chunk offsets of all rows equal to `value` to `result`.
  /// Values are NULL or exactly of the indexed column's type: callers type a
  /// predicate literal with TypePredicateLiteral first.
  virtual void Equals(const AllTypeVariant& value, std::vector<ChunkOffset>& result) const = 0;

  /// Appends the offsets of all rows within the (optional) bounds.
  virtual void Range(const std::optional<AllTypeVariant>& lower, bool lower_inclusive,
                     const std::optional<AllTypeVariant>& upper, bool upper_inclusive,
                     std::vector<ChunkOffset>& result) const = 0;

  virtual size_t MemoryUsage() const = 0;

 private:
  ChunkIndexType type_;
  DataType data_type_;
};

/// Builds an index of the requested type over `segment`. GroupKey requires a
/// dictionary-encoded segment (it exploits the order-preserving dictionary).
std::shared_ptr<AbstractChunkIndex> CreateChunkIndex(ChunkIndexType type,
                                                     const std::shared_ptr<const AbstractSegment>& segment);

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_INDEX_ABSTRACT_CHUNK_INDEX_HPP_

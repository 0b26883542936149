#ifndef HYRISE_SRC_STORAGE_ABSTRACT_SEGMENT_HPP_
#define HYRISE_SRC_STORAGE_ABSTRACT_SEGMENT_HPP_

#include <memory>
#include <vector>

#include "types/all_type_variant.hpp"
#include "types/types.hpp"

namespace hyrise {

/// A vertical partition of a chunk, holding the chunk's share of one column
/// (paper §2.2). Virtual methods here are the *slow* path used by utilities,
/// result rows and tests; operators read data through the statically
/// resolved decoder in storage/segment_decoder.hpp instead.
class AbstractSegment {
 public:
  explicit AbstractSegment(DataType data_type) : data_type_(data_type) {}

  AbstractSegment(const AbstractSegment&) = delete;
  AbstractSegment& operator=(const AbstractSegment&) = delete;
  virtual ~AbstractSegment() = default;

  DataType data_type() const {
    return data_type_;
  }

  virtual ChunkOffset size() const = 0;

  /// Untyped single-value access (slow path; returns NULL variant for NULLs).
  virtual AllTypeVariant operator[](ChunkOffset chunk_offset) const = 0;

  /// Estimated heap footprint in bytes (Figure 7, bottom).
  virtual size_t MemoryUsage() const = 0;

 protected:
  const DataType data_type_;
};

using Segments = std::vector<std::shared_ptr<AbstractSegment>>;

/// Base class of all encoded (immutable) segments.
class AbstractEncodedSegment : public AbstractSegment {
 public:
  AbstractEncodedSegment(DataType data_type, EncodingType encoding_type)
      : AbstractSegment(data_type), encoding_type_(encoding_type) {}

  EncodingType encoding_type() const {
    return encoding_type_;
  }

 protected:
  const EncodingType encoding_type_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_ABSTRACT_SEGMENT_HPP_

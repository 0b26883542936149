#ifndef HYRISE_SRC_STORAGE_SEGMENT_ACCESSOR_HPP_
#define HYRISE_SRC_STORAGE_SEGMENT_ACCESSOR_HPP_

#include <memory>
#include <optional>

#include "storage/dictionary_segment.hpp"
#include "storage/frame_of_reference_segment.hpp"
#include "storage/run_length_segment.hpp"
#include "storage/value_segment.hpp"

namespace hyrise {

/// Virtual single-value access into a stored segment: one virtual call per
/// value. This is the *dynamic polymorphism* path — the way the previous
/// version of the system accessed data — kept only as the paper's Figure 3b
/// baseline (bench/fig3b_polymorphism.cpp) and for the encoding round-trip
/// test. No operator reads through it.
template <typename T>
class AbstractSegmentAccessor {
 public:
  virtual ~AbstractSegmentAccessor() = default;

  /// nullopt encodes NULL.
  virtual std::optional<T> Access(ChunkOffset offset) const = 0;
};

namespace detail {

template <typename T>
class ValueSegmentAccessor final : public AbstractSegmentAccessor<T> {
 public:
  explicit ValueSegmentAccessor(const ValueSegment<T>& segment) : segment_(&segment) {}

  std::optional<T> Access(ChunkOffset offset) const final {
    if (segment_->IsNullAt(offset)) {
      return std::nullopt;
    }
    return segment_->values()[offset];
  }

 private:
  const ValueSegment<T>* segment_;
};

template <typename T>
class DictionarySegmentAccessor final : public AbstractSegmentAccessor<T> {
 public:
  explicit DictionarySegmentAccessor(const DictionarySegment<T>& segment)
      : segment_(&segment), decompressor_(segment.attribute_vector().CreateBaseDecompressor()) {}

  std::optional<T> Access(ChunkOffset offset) const final {
    const auto value_id = decompressor_->Get(offset);
    if (value_id == segment_->null_value_id()) {
      return std::nullopt;
    }
    return segment_->dictionary()[value_id];
  }

 private:
  const DictionarySegment<T>* segment_;
  mutable std::unique_ptr<BaseVectorDecompressor> decompressor_;
};

template <typename T>
class RunLengthSegmentAccessor final : public AbstractSegmentAccessor<T> {
 public:
  explicit RunLengthSegmentAccessor(const RunLengthSegment<T>& segment) : segment_(&segment) {}

  std::optional<T> Access(ChunkOffset offset) const final {
    const auto run = segment_->RunIndexOf(offset);
    if (segment_->run_is_null()[run]) {
      return std::nullopt;
    }
    return segment_->values()[run];
  }

 private:
  const RunLengthSegment<T>* segment_;
};

template <typename T>
class FrameOfReferenceSegmentAccessor final : public AbstractSegmentAccessor<T> {
 public:
  explicit FrameOfReferenceSegmentAccessor(const FrameOfReferenceSegment<T>& segment)
      : segment_(&segment), decompressor_(segment.offset_values().CreateBaseDecompressor()) {}

  std::optional<T> Access(ChunkOffset offset) const final {
    if (segment_->IsNullAt(offset)) {
      return std::nullopt;
    }
    return segment_->DecodeAt(offset, decompressor_->Get(offset));
  }

 private:
  const FrameOfReferenceSegment<T>* segment_;
  mutable std::unique_ptr<BaseVectorDecompressor> decompressor_;
};

}  // namespace detail

template <typename T>
std::unique_ptr<AbstractSegmentAccessor<T>> CreateSegmentAccessor(const AbstractSegment& segment) {
  if (const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(&segment)) {
    return std::make_unique<detail::ValueSegmentAccessor<T>>(*value_segment);
  }
  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    return std::make_unique<detail::DictionarySegmentAccessor<T>>(*dictionary_segment);
  }
  if (const auto* run_length_segment = dynamic_cast<const RunLengthSegment<T>*>(&segment)) {
    return std::make_unique<detail::RunLengthSegmentAccessor<T>>(*run_length_segment);
  }
  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<T>*>(&segment)) {
      return std::make_unique<detail::FrameOfReferenceSegmentAccessor<T>>(*for_segment);
    }
  }
  Fail("CreateSegmentAccessor reads stored segments only");
}

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_SEGMENT_ACCESSOR_HPP_

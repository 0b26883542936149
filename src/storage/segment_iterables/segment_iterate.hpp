#ifndef HYRISE_SRC_STORAGE_SEGMENT_ITERABLES_SEGMENT_ITERATE_HPP_
#define HYRISE_SRC_STORAGE_SEGMENT_ITERABLES_SEGMENT_ITERATE_HPP_

#include <memory>

#include "storage/segment_iterables/dictionary_segment_iterable.hpp"
#include "storage/segment_iterables/frame_of_reference_segment_iterable.hpp"
#include "storage/segment_iterables/run_length_segment_iterable.hpp"
#include "storage/segment_iterables/value_segment_iterable.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// Resolves the concrete class of a stored segment (and, for encodings with a
/// compressed attribute vector, the concrete vector class) and calls
/// `functor(begin, end)` with statically typed iterators — the paper's
/// `with_iterators` entry point. `position_filter` (may be null) restricts
/// the visited offsets. Its users are the statistics, the indexes, the
/// self-driving plugin and the Figure-3 benches; operators read columns,
/// reference segments included, through DecodeSegment
/// (storage/segment_decoder.hpp).
template <typename T, typename Functor>
void SegmentWithIterators(const AbstractSegment& segment, const std::shared_ptr<const PositionFilter>& position_filter,
                          const Functor& functor) {
  if (const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(&segment)) {
    ValueSegmentIterable<T>{*value_segment}.WithIterators(position_filter, functor);
    return;
  }
  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
      using VectorType = std::decay_t<decltype(vector)>;
      DictionarySegmentIterable<T, VectorType>{*dictionary_segment, vector}.WithIterators(position_filter, functor);
    });
    return;
  }
  if (const auto* run_length_segment = dynamic_cast<const RunLengthSegment<T>*>(&segment)) {
    RunLengthSegmentIterable<T>{*run_length_segment}.WithIterators(position_filter, functor);
    return;
  }
  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<T>*>(&segment)) {
      ResolveCompressedVector(for_segment->offset_values(), [&](const auto& vector) {
        using VectorType = std::decay_t<decltype(vector)>;
        FrameOfReferenceSegmentIterable<T, VectorType>{*for_segment, vector}.WithIterators(position_filter, functor);
      });
      return;
    }
  }
  Fail("SegmentWithIterators reads stored segments only; reference segments are decoded (DecodeSegment)");
}

/// Calls `functor(SegmentPosition<T>)` for every (filtered) value.
template <typename T, typename Functor>
void SegmentIterate(const AbstractSegment& segment, const std::shared_ptr<const PositionFilter>& position_filter,
                    const Functor& functor) {
  SegmentWithIterators<T>(segment, position_filter, [&](auto iter, const auto end) {
    for (; iter != end; ++iter) {
      functor(*iter);
    }
  });
}

template <typename T, typename Functor>
void SegmentIterate(const AbstractSegment& segment, const Functor& functor) {
  SegmentIterate<T>(segment, nullptr, functor);
}

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_SEGMENT_ITERABLES_SEGMENT_ITERATE_HPP_

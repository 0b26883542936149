#ifndef HYRISE_SRC_STORAGE_SEGMENT_ITERABLES_SEGMENT_ITERABLE_HPP_
#define HYRISE_SRC_STORAGE_SEGMENT_ITERABLES_SEGMENT_ITERABLE_HPP_

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

#include "storage/segment_iterables/segment_position.hpp"
#include "types/types.hpp"

namespace hyrise {

/// Offsets to visit during point-access ("positional") iteration.
using PositionFilter = std::vector<ChunkOffset>;

/// CRTP base of the stored segments' iterables (paper §2.3). Derived classes
/// implement OnWithIterators / OnWithPointIterators; SegmentWithIterators
/// calls WithIterators with a functor receiving (begin, end). Both the
/// iterators and the functor are resolved at compile time — no virtual calls
/// inside the loop. The optional position filter selects the values to visit.
template <typename Derived>
class SegmentIterable {
 public:
  template <typename Functor>
  void WithIterators(const std::shared_ptr<const PositionFilter>& position_filter, const Functor& functor) const {
    if (!position_filter) {
      Self().OnWithIterators(functor);
    } else {
      Self().OnWithPointIterators(*position_filter, functor);
    }
  }

 private:
  const Derived& Self() const {
    return static_cast<const Derived&>(*this);
  }
};

/// Generic point-access iterator: walks a position filter and reads each
/// referenced offset through a (statically resolved) getter returning
/// {value, is_null}. chunk_offset() of yielded positions is the index into
/// the filter.
template <typename T, typename Getter>
class PointAccessIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = SegmentPosition<T>;
  using difference_type = std::ptrdiff_t;

  PointAccessIterator(const PositionFilter* positions, Getter getter, size_t index)
      : positions_(positions), getter_(std::move(getter)), index_(index) {}

  SegmentPosition<T> operator*() const {
    const auto referenced_offset = (*positions_)[index_];
    auto [value, is_null] = getter_(referenced_offset);
    return SegmentPosition<T>{std::move(value), is_null, static_cast<ChunkOffset>(index_)};
  }

  PointAccessIterator& operator++() {
    ++index_;
    return *this;
  }

  friend bool operator==(const PointAccessIterator& lhs, const PointAccessIterator& rhs) {
    return lhs.index_ == rhs.index_;
  }

  friend bool operator!=(const PointAccessIterator& lhs, const PointAccessIterator& rhs) {
    return lhs.index_ != rhs.index_;
  }

 private:
  const PositionFilter* positions_;
  Getter getter_;
  size_t index_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_SEGMENT_ITERABLES_SEGMENT_ITERABLE_HPP_

#ifndef HYRISE_SRC_STORAGE_POS_LIST_HPP_
#define HYRISE_SRC_STORAGE_POS_LIST_HPP_

#include <memory>
#include <vector>

#include "types/types.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// A list of row positions, produced by scans/joins and consumed by
/// ReferenceSegments (paper §2.6: "operators ... can pass positional
/// references to the next operator").
class RowIDPosList : public std::vector<RowID> {
 public:
  using std::vector<RowID>::vector;

  /// Promise that all contained RowIDs share one chunk (and none is
  /// kNullRowId), enabling the single-gather decode and dictionary-code scans.
  void GuaranteeSingleChunk() {
    references_single_chunk_ = true;
  }

  bool ReferencesSingleChunk() const {
    return references_single_chunk_;
  }

  /// The common chunk (only valid under the single-chunk guarantee).
  ChunkID CommonChunkId() const {
    DebugAssert(references_single_chunk_ && !empty(), "No common chunk");
    return front().chunk_id;
  }

 private:
  bool references_single_chunk_ = false;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_POS_LIST_HPP_

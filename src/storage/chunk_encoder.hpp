#ifndef HYRISE_SRC_STORAGE_CHUNK_ENCODER_HPP_
#define HYRISE_SRC_STORAGE_CHUNK_ENCODER_HPP_

#include <memory>
#include <vector>

#include "storage/abstract_segment.hpp"
#include "storage/chunk.hpp"
#include "types/types.hpp"

namespace hyrise {

class Table;

/// Applies segment encodings to immutable chunks (paper §2.2: "when a chunk's
/// capacity is reached it becomes immutable. Once this happens, encodings can
/// be applied"). Different segments of the same chunk may use different
/// encodings.
class ChunkEncoder {
 public:
  /// Re-encodes an arbitrary segment into the requested encoding. Falls back
  /// to dictionary encoding where a scheme does not support the data type
  /// (frame-of-reference on non-integer columns).
  static std::shared_ptr<AbstractSegment> EncodeSegment(const std::shared_ptr<AbstractSegment>& segment,
                                                        DataType data_type, const SegmentEncodingSpec& spec);

  /// Encodes every segment of `chunk` according to `specs` (one per column).
  /// The chunk must be immutable.
  static void EncodeChunk(const std::shared_ptr<Chunk>& chunk, const std::vector<DataType>& data_types,
                          const std::vector<SegmentEncodingSpec>& specs);

  /// Finalizes and encodes all chunks of `table` with a single spec.
  static void EncodeAllChunks(const std::shared_ptr<Table>& table, const SegmentEncodingSpec& spec);

  /// Finalizes and encodes all chunks with per-column specs.
  static void EncodeAllChunks(const std::shared_ptr<Table>& table, const std::vector<SegmentEncodingSpec>& specs);
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_CHUNK_ENCODER_HPP_

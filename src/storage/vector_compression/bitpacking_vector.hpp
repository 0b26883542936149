#ifndef HYRISE_SRC_STORAGE_VECTOR_COMPRESSION_BITPACKING_VECTOR_HPP_
#define HYRISE_SRC_STORAGE_VECTOR_COMPRESSION_BITPACKING_VECTOR_HPP_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "storage/vector_compression/base_compressed_vector.hpp"

namespace hyrise {

/// Stand-in for SIMD-BP128 (see DESIGN.md §4): values are packed in blocks of
/// 128 with a per-block bit width. Sequential decode goes through vectorized
/// block-unpack kernels (AVX2 intrinsics where the CPU supports them, an
/// auto-vectorized scalar kernel otherwise — see bitpacking_vector.cpp);
/// positional access does per-value bit arithmetic, reproducing the relative
/// access costs of Figure 3a.
class BitPackingVector final : public BaseCompressedVector {
 public:
  static constexpr size_t kBlockSize = kDecodeBlockSize;

  /// Non-virtual decompressor; caches the current unpacked block, so both
  /// sequential iteration and point access over a sorted position list unpack
  /// each block at most once (regression-tested via unpack_count()).
  class Decompressor {
   public:
    explicit Decompressor(const BitPackingVector& vector) : vector_(&vector) {}

    uint32_t Get(size_t index) const {
      const auto block = index / kBlockSize;
      if (block != cached_block_) {
        vector_->DecodeBlockInto(block, cache_.data());
        cached_block_ = block;
        ++unpack_count_;
      }
      return cache_[index % kBlockSize];
    }

    size_t size() const {
      return vector_->size();
    }

    /// Number of block unpacks this decompressor has performed; monotonic
    /// access patterns must not exceed the number of blocks touched.
    size_t unpack_count() const {
      return unpack_count_;
    }

   private:
    const BitPackingVector* vector_;
    // Get() must stay const (the decoder holds its decompressor as const), so
    // the cache is logically-const state.
    mutable size_t cached_block_{std::numeric_limits<size_t>::max()};
    mutable size_t unpack_count_{0};
    mutable std::array<uint32_t, kBlockSize> cache_{};
  };

  explicit BitPackingVector(const std::vector<uint32_t>& values);

  /// Raw-parts constructor for the persistence layer: adopts a payload that a
  /// previous BitPackingVector produced (including the trailing guard word)
  /// without touching a single value — binary import must not re-pack.
  /// Callers are responsible for validating the parts against each other
  /// (see persistence::ValidateBitPackingParts); this constructor only adopts.
  BitPackingVector(size_t size, std::vector<uint8_t> block_bits, std::vector<uint32_t> block_offsets,
                   std::vector<uint64_t> data)
      : size_(size),
        block_bits_(std::move(block_bits)),
        block_offsets_(std::move(block_offsets)),
        data_(std::move(data)) {}

  size_t size() const final {
    return size_;
  }

  size_t DataSize() const final;

  CompressedVectorInternalType internal_type() const final {
    return CompressedVectorInternalType::kBitPacking128;
  }

  VectorCompressionType type() const final {
    return VectorCompressionType::kBitPacking128;
  }

  uint32_t Get(size_t index) const final {
    return GetImpl(index);
  }

  size_t DecodeBlock(size_t block_index, uint32_t* out) const final {
    return DecodeBlockInto(block_index, out);
  }

  /// Unpacks block `block_index` into `out` (room for kBlockSize entries
  /// required; entries past the returned count are unspecified) and returns
  /// the number of valid values.
  size_t DecodeBlockInto(size_t block_index, uint32_t* out) const;

  std::vector<uint32_t> Decode() const final;

  std::unique_ptr<BaseVectorDecompressor> CreateBaseDecompressor() const final;

  Decompressor CreateDecompressor() const {
    return Decompressor{*this};
  }

  // --- Raw-parts access (persistence: segments serialize their compressed
  // in-memory layout as-is, so restore is a near-memcpy) ---------------------

  const std::vector<uint8_t>& block_bits() const {
    return block_bits_;
  }

  const std::vector<uint32_t>& block_offsets() const {
    return block_offsets_;
  }

  /// Packed payload including the trailing guard word.
  const std::vector<uint64_t>& packed_data() const {
    return data_;
  }

 private:
  friend class Decompressor;

  uint32_t GetImpl(size_t index) const;

  size_t size_{0};
  std::vector<uint8_t> block_bits_;      // Bit width per block (1..32).
  std::vector<uint32_t> block_offsets_;  // Start word of each block in data_.
  // Packed payload; one zero guard word is appended so the unpack kernels'
  // 8-byte unaligned loads never read past the allocation.
  std::vector<uint64_t> data_;
};

class BitPackingBaseDecompressor final : public BaseVectorDecompressor {
 public:
  explicit BitPackingBaseDecompressor(const BitPackingVector& vector) : decompressor_(vector) {}

  uint32_t Get(size_t index) final {
    return decompressor_.Get(index);
  }

  size_t size() const final {
    return decompressor_.size();
  }

 private:
  BitPackingVector::Decompressor decompressor_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_VECTOR_COMPRESSION_BITPACKING_VECTOR_HPP_

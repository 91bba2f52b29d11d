// PEF (Partitioned Elias-Fano) — paper §3.9, [30].
//
// Not d-gap based: the list is split into 128-element partitions, and each
// partition is stored in whichever of three containers is smallest:
//   - Elias-Fano: low l = floor(log2(u/n)) bits of each offset packed
//     contiguously, high bits as a unary-coded bit vector;
//   - an uncompressed bitmap over the partition's span;
//   - implicit: the partition is a dense run first..last (zero bytes).
// This is the clustering-adaptive partitioning of [30] with fixed-size
// partitions. NextGEQ walks the high-bit array directly, so intersection
// does not decode whole partitions (the property the paper highlights).
// Full decompression must touch every high bit (§5.1(12)); one bulk kernel
// does it a word at a time, ctz plus clear-lowest-bit over the high words
// with the low bits unpacked in bulk, and serves Decode, the bulk probe's
// partition materialization and ValidateSet's value replay alike.

#ifndef INTCOMP_INVLIST_PEF_H_
#define INTCOMP_INVLIST_PEF_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/codec.h"

namespace intcomp {

class PefCodec final : public Codec {
 public:
  // Partition size. 128 reproduces the paper's PEF; a partition size of 0
  // means "one partition for the whole list", i.e. plain (non-partitioned)
  // Elias-Fano [35], exposed in the registry as the "EF" extension.
  explicit PefCodec(size_t partition_size = 128, const char* name = "PEF")
      : partition_size_(partition_size), name_(name) {}

  enum class PartitionType : uint8_t { kEliasFano = 0, kBitmap = 1, kRun = 2 };

  struct Partition {
    uint32_t first;       // first value in the partition
    uint32_t last;        // last value (defines the EF universe)
    uint32_t offset;      // word offset into data
    PartitionType type;
    uint8_t low_bits;     // EF low-part width l
  };

  struct Set final : CompressedSet {
    std::vector<uint32_t> data;  // packed low/high/bitmap words
    std::vector<Partition> parts;
    size_t count = 0;

    // 4 (first) + 4 (offset) + 1 (type) + 1 (l) + 4 (last) bytes of
    // metadata per partition; real PEF compresses this upper level too,
    // which we charge at face value.
    static size_t Footprint(size_t data_words, size_t num_parts) {
      return data_words * 4 + num_parts * 14;
    }
    size_t SizeInBytes() const override {
      return Footprint(data.size(), parts.size());
    }
    size_t Cardinality() const override { return count; }
  };

  std::string_view Name() const override { return name_; }
  CodecFamily Family() const override { return CodecFamily::kInvertedList; }

  std::unique_ptr<CompressedSet> Encode(std::span<const uint32_t> sorted,
                                        uint64_t domain) const override;
  // Per partition, the container size Encode's layout choice yields.
  size_t EncodedSize(std::span<const uint32_t> sorted,
                     uint64_t domain) const override;
  void Decode(const CompressedSet& set,
              std::vector<uint32_t>* out) const override;
  void Intersect(const CompressedSet& a, const CompressedSet& b,
                 std::vector<uint32_t>* out) const override;
  void Union(const CompressedSet& a, const CompressedSet& b,
             std::vector<uint32_t>* out) const override;
  void IntersectWithList(const CompressedSet& a,
                         std::span<const uint32_t> probe,
                         std::vector<uint32_t>* out) const override;
  void Serialize(const CompressedSet& set,
                 std::vector<uint8_t>* out) const override;
  std::unique_ptr<CompressedSet> Deserialize(const uint8_t* data,
                                             size_t size) const override;
  Status ValidateSet(const CompressedSet& set,
                     uint64_t domain) const override;

 private:
  // Effective elements-per-partition for a list of n values.
  size_t PartitionSpan(size_t n) const {
    return partition_size_ == 0 ? std::max<size_t>(1, n) : partition_size_;
  }

  const size_t partition_size_;
  const char* name_;
};

}  // namespace intcomp

#endif  // INTCOMP_INVLIST_PEF_H_

// Roaring bitmaps — paper §2.7, [10].
//
// The domain is split into 2^16-wide chunks sharing their 16 most
// significant bits. A chunk with more than 4096 elements is stored as an
// uncompressed 65536-bit bitmap (1024 uint64 words); otherwise as a sorted
// array of 16-bit low parts. 4096 is the break-even point at which the
// bitmap form costs <= 16 bits per element. Intersection and union walk the
// two container lists by key (bucket-level skipping) and dispatch to
// array×array / array×bitmap / bitmap×bitmap kernels.

#ifndef INTCOMP_BITMAP_ROARING_H_
#define INTCOMP_BITMAP_ROARING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/codec.h"

namespace intcomp {

class RoaringCodec final : public Codec {
 public:
  static constexpr uint32_t kArrayMax = 4096;   // container type threshold
  static constexpr size_t kBitmapWords = 1024;  // 65536 bits

  struct Container {
    uint16_t key;        // high 16 bits of the values in this chunk
    bool is_bitmap;      // bitmap vs sorted-array container
    uint32_t cardinality;
    size_t offset;       // index into array_data (uint16) or bitmap_data
                         // (uint64), depending on is_bitmap
  };

  struct Set final : CompressedSet {
    std::vector<Container> containers;
    std::vector<uint16_t> array_data;
    std::vector<uint64_t> bitmap_data;
    size_t cardinality = 0;

    size_t SizeInBytes() const override {
      // 4 descriptor bytes per container (key + cardinality), as in the
      // Roaring format, plus container payloads.
      return containers.size() * 4 + array_data.size() * 2 +
             bitmap_data.size() * 8;
    }
    size_t Cardinality() const override { return cardinality; }
  };

  RoaringCodec() = default;

  std::string_view Name() const override { return "Roaring"; }
  CodecFamily Family() const override { return CodecFamily::kBitmap; }

  std::unique_ptr<CompressedSet> Encode(std::span<const uint32_t> sorted,
                                        uint64_t domain) const override;
  // Sums the per-container footprints SizeInBytes charges, walking the
  // same container boundaries Encode does.
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
};

}  // namespace intcomp

#endif  // INTCOMP_BITMAP_ROARING_H_

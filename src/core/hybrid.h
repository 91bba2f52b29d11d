// HybridCodec — the "unified compression method" the paper's lesson 1 calls
// for: per list, adaptively store either a bitmap-family or a list-family
// representation, following the paper's §7.1 guidance (density >= ~1/5 of
// the domain favors bitmaps; sparse lists favor inverted-list codecs).
//
// The default pairing is Roaring (best bitmap, fastest intersection) with
// SIMDPforDelta* (smallest and among the fastest list codecs). Pairwise
// operations run the mixed-codec IntersectTagged / UnionTagged over the two
// inner sets: same-family pairs use the inner codec's compressed operation,
// mixed-family pairs decode the smaller side and probe the larger through
// its own skip structure (or merge two decoded lists of similar size).

#ifndef INTCOMP_CORE_HYBRID_H_
#define INTCOMP_CORE_HYBRID_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/codec.h"
#include "core/set_ops.h"

namespace intcomp {

class HybridCodec final : public Codec {
 public:
  struct Set final : CompressedSet {
    std::unique_ptr<CompressedSet> inner;
    bool is_bitmap = false;

    size_t SizeInBytes() const override { return inner->SizeInBytes() + 1; }
    size_t Cardinality() const override { return inner->Cardinality(); }
  };

  // `bitmap` / `list` must outlive this codec (registry singletons do).
  HybridCodec(const Codec* bitmap, const Codec* list,
              double density_threshold = 0.2)
      : bitmap_(bitmap), list_(list), threshold_(density_threshold) {}

  std::string_view Name() const override { return "Hybrid"; }
  // Static family stays kBitmap (registry partition slot); per-set queries
  // must use EffectiveFamily — a list-backed set is NOT a bitmap.
  CodecFamily Family() const override { return CodecFamily::kBitmap; }
  CodecFamily EffectiveFamily(const CompressedSet& set) const override {
    return static_cast<const Set&>(set).is_bitmap ? CodecFamily::kBitmap
                                                  : CodecFamily::kInvertedList;
  }
  std::string_view SetCodecName(const CompressedSet& set) const override {
    return InnerOf(static_cast<const Set&>(set)).Name();
  }

  std::unique_ptr<CompressedSet> Encode(std::span<const uint32_t> sorted,
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
  StatusOr<std::unique_ptr<CompressedSet>> DeserializeChecked(
      std::span<const uint8_t> image, uint64_t domain) const override;
  // Delegates to the inner codec's ValidateSet.
  Status ValidateSet(const CompressedSet& set,
                     uint64_t domain) const override;

 private:
  const Codec& InnerOf(const Set& s) const {
    return s.is_bitmap ? *bitmap_ : *list_;
  }
  TaggedSet Tagged(const Set& s) const { return {&InnerOf(s), s.inner.get()}; }

  const Codec* bitmap_;
  const Codec* list_;
  const double threshold_;
};

}  // namespace intcomp

#endif  // INTCOMP_CORE_HYBRID_H_

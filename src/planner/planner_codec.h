// PlannerCodec — the build-time per-list codec optimizer (DESIGN.md §5.12)
// and the paper's lesson-1 unified method: per list, pick the candidate
// that represents *that* list best, so an index never pays a whole-index
// codec's worst case on lists the other family wins. Two selection modes:
//
//   kTrialEncode (default) — size every candidate exactly
//     (Codec::EncodedSize, which builds no image), pick the smallest
//     (deterministic tie-break: lowest pool index) and encode only that
//     one. Optimal for space by construction: the index's total size is <=
//     the total under any single pool member.
//   kStats — the paper's §7.1 density rule, no trial encodes: a list at
//     least 1/5 dense (|L| / min(domain, max+1); domain 0 means "use the
//     value range") goes to the pool's first bitmap codec, any other list
//     to its first list codec.
//
// The registry holds two configurations: "Planner" (kTrialEncode over
// {Roaring, EWAH, SIMDPforDelta*, PEF}) and "Hybrid" (kStats over
// {SIMDPforDelta*, Roaring}, so the tag byte is 0 for a list and 1 for a
// bitmap).
//
// A set carries its pool index as a one-byte tag, serialized ahead of the
// inner image — the per-list codec tag the storage layer persists in the
// container's section directory. Cross-tag set operations route through
// the mixed-codec core ops (core/set_ops.h TaggedSet) and the query-time
// strategy chooser (planner/strategy.h).

#ifndef INTCOMP_PLANNER_PLANNER_CODEC_H_
#define INTCOMP_PLANNER_PLANNER_CODEC_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/codec.h"

namespace intcomp::planner {

class PlannerCodec final : public Codec {
 public:
  enum class Selection : uint8_t { kTrialEncode, kStats };

  struct Set final : CompressedSet {
    uint8_t tag = 0;                    // index into the candidate pool
    const Codec* codec = nullptr;       // pool()[tag]
    std::unique_ptr<CompressedSet> inner;

    size_t SizeInBytes() const override { return inner->SizeInBytes() + 1; }
    size_t Cardinality() const override { return inner->Cardinality(); }
  };

  // `pool` entries must outlive this codec (registry singletons do); 1 to
  // 255 candidates, and should span both families for the selection to
  // matter. `name` is the registry/display name.
  PlannerCodec(std::vector<const Codec*> pool,
               Selection selection = Selection::kTrialEncode,
               std::string_view name = "Planner");

  std::span<const Codec* const> pool() const { return pool_; }

  std::string_view Name() const override { return name_; }
  // Static family is a registry slot, not a per-set truth — adaptive sets
  // answer through EffectiveFamily.
  CodecFamily Family() const override { return CodecFamily::kBitmap; }
  CodecFamily EffectiveFamily(const CompressedSet& set) const override {
    const Set& s = static_cast<const Set&>(set);
    return s.codec->EffectiveFamily(*s.inner);
  }
  std::string_view SetCodecName(const CompressedSet& set) const override {
    const Set& s = static_cast<const Set&>(set);
    return s.codec->SetCodecName(*s.inner);
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
  Status ValidateSet(const CompressedSet& set,
                     uint64_t domain) const override;

 private:
  uint8_t SelectCodec(std::span<const uint32_t> sorted, uint64_t domain,
                      std::unique_ptr<CompressedSet>* encoded) const;

  std::vector<const Codec*> pool_;
  Selection selection_;
  std::string name_;
};

}  // namespace intcomp::planner

#endif  // INTCOMP_PLANNER_PLANNER_CODEC_H_

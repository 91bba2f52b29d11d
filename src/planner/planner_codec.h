// PlannerCodec — the build-time per-list codec optimizer (DESIGN.md §5.12).
//
// Generalizes HybridCodec's two-way density split to an N-way choice over a
// configurable candidate pool: every Encode measures the list's shape
// (planner/list_stats.h) and picks the candidate that represents *that*
// list best, so an index never pays a whole-index codec's worst case on
// lists the other family wins. Two selection modes:
//
//   kTrialEncode (default) — size every candidate exactly
//     (Codec::EncodedSize, which builds no image), pick the smallest
//     (deterministic tie-break: lowest pool index) and encode only that
//     one. Optimal for space by construction: the index's total size is <=
//     the total under any single pool member.
//   kStats — pick from the measured density/run statistics alone (the
//     paper's §7.1 rules, no trial encodes): dense or strongly-clustered
//     lists go to the bitmap side, sparse lists to the list side.
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
#include "planner/list_stats.h"

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
               std::string_view name = "Planner",
               double density_threshold = 0.2);

  std::span<const Codec* const> pool() const { return pool_; }
  Selection selection() const { return selection_; }

  // The pool index kStats selection would assign to a list with `stats`'s
  // shape (exposed for tests and the sweep bench's decision table).
  uint8_t StatsChoice(const ListStats& stats) const;

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
  double threshold_;
};

}  // namespace intcomp::planner

#endif  // INTCOMP_PLANNER_PLANNER_CODEC_H_

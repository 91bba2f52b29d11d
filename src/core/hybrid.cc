#include "core/hybrid.h"

#include <algorithm>

#include "common/bufio.h"

namespace intcomp {

std::unique_ptr<CompressedSet> HybridCodec::Encode(
    std::span<const uint32_t> sorted, uint64_t domain) const {
  auto set = std::make_unique<Set>();
  // Effective universe: the declared domain, or the value range when the
  // caller passes a loose bound. domain == 0 means "unknown", never "tiny":
  // clamping it to 1 would make every non-empty list look fully dense and
  // silently route arbitrarily sparse sets to the bitmap family.
  uint64_t universe = domain;
  if (!sorted.empty()) {
    const uint64_t value_range = uint64_t{sorted.back()} + 1;
    universe = domain == 0 ? value_range : std::min(domain, value_range);
  }
  const double density =
      universe == 0 ? 0.0
                    : static_cast<double>(sorted.size()) /
                          static_cast<double>(universe);
  set->is_bitmap = density >= threshold_;
  set->inner = (set->is_bitmap ? bitmap_ : list_)->Encode(sorted, domain);
  return set;
}

void HybridCodec::Decode(const CompressedSet& set,
                         std::vector<uint32_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  InnerOf(s).Decode(*s.inner, out);
}

void HybridCodec::Intersect(const CompressedSet& a, const CompressedSet& b,
                            std::vector<uint32_t>* out) const {
  IntersectTagged(Tagged(static_cast<const Set&>(a)),
                  Tagged(static_cast<const Set&>(b)), out);
}

void HybridCodec::Union(const CompressedSet& a, const CompressedSet& b,
                        std::vector<uint32_t>* out) const {
  UnionTagged(Tagged(static_cast<const Set&>(a)),
              Tagged(static_cast<const Set&>(b)), out);
}

void HybridCodec::IntersectWithList(const CompressedSet& a,
                                    std::span<const uint32_t> probe,
                                    std::vector<uint32_t>* out) const {
  const auto& s = static_cast<const Set&>(a);
  InnerOf(s).IntersectWithList(*s.inner, probe, out);
}

void HybridCodec::Serialize(const CompressedSet& set,
                            std::vector<uint8_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  ByteWriter(out).PutU8(s.is_bitmap ? 1 : 0);
  InnerOf(s).Serialize(*s.inner, out);
}

std::unique_ptr<CompressedSet> HybridCodec::Deserialize(const uint8_t* data,
                                                        size_t size) const {
  if (size < 1 || data[0] > 1) return nullptr;
  auto set = std::make_unique<Set>();
  set->is_bitmap = data[0] == 1;
  set->inner = (set->is_bitmap ? bitmap_ : list_)
                   ->Deserialize(data + 1, size - 1);
  if (set->inner == nullptr) return nullptr;
  return set;
}

StatusOr<std::unique_ptr<CompressedSet>> HybridCodec::DeserializeChecked(
    std::span<const uint8_t> image, uint64_t domain) const {
  if (image.empty())
    return Status::Corrupt("Hybrid: empty image (missing family tag)");
  if (image[0] > 1)
    return Status::Corrupt("Hybrid: family tag is neither 0 (list) nor 1 "
                           "(bitmap)");
  auto set = std::make_unique<Set>();
  set->is_bitmap = image[0] == 1;
  auto inner = (set->is_bitmap ? bitmap_ : list_)
                   ->DeserializeChecked(image.subspan(1), domain);
  if (!inner.ok()) return inner.status();
  set->inner = std::move(inner.value());
  return StatusOr<std::unique_ptr<CompressedSet>>(std::move(set));
}

Status HybridCodec::ValidateSet(const CompressedSet& set,
                                uint64_t domain) const {
  const auto& s = static_cast<const Set&>(set);
  if (s.inner == nullptr) return Status::Corrupt("Hybrid: missing inner set");
  return InnerOf(s).ValidateSet(*s.inner, domain);
}

}  // namespace intcomp

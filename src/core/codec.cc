#include "core/codec.h"

#include "common/simd_intersect.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace intcomp {

size_t Codec::EncodedSize(std::span<const uint32_t> sorted,
                          uint64_t domain) const {
  return Encode(sorted, domain)->SizeInBytes();
}

StatusOr<std::unique_ptr<CompressedSet>> Codec::DeserializeChecked(
    std::span<const uint8_t> image, uint64_t domain) const {
  TRACE_SPAN("deserialize_checked");
  obs::ScopedOpTimer timer(Name(), obs::OpKind::kDeserializeChecked);
  std::unique_ptr<CompressedSet> set = Deserialize(image.data(), image.size());
  if (set == nullptr) {
    return Status::Corrupt("unparseable image (truncated or bad lengths)");
  }
  Status valid = ValidateSet(*set, domain);
  if (!valid.ok()) return valid;
  return StatusOr<std::unique_ptr<CompressedSet>>(std::move(set));
}

StatusOr<std::unique_ptr<CompressedSet>> Codec::DeserializeCheckedView(
    std::span<const uint8_t> image, uint64_t domain) const {
  TRACE_SPAN("deserialize_checked_view");
  obs::ScopedOpTimer timer(Name(), obs::OpKind::kDeserializeChecked);
  std::unique_ptr<CompressedSet> set = DeserializeView(image);
  if (set == nullptr) {
    return Status::Corrupt("unparseable image (truncated or bad lengths)");
  }
  Status valid = ValidateSet(*set, domain);
  if (!valid.ok()) return valid;
  return StatusOr<std::unique_ptr<CompressedSet>>(std::move(set));
}

void Codec::IntersectWithList(const CompressedSet& a,
                              std::span<const uint32_t> probe,
                              std::vector<uint32_t>* out) const {
  std::vector<uint32_t> decoded;
  obs::ThreadOpCounters().bytes_decoded += a.SizeInBytes();
  Decode(a, &decoded);
  IntersectLists(decoded, probe, out);
}

void IntersectLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    std::vector<uint32_t>* out) {
  out->clear();
  IntersectKernelInto(a, b, out);
}

void UnionLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  UnionKernelInto(a, b, out);
}

}  // namespace intcomp

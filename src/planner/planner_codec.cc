#include "planner/planner_codec.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bufio.h"
#include "core/set_ops.h"
#include "obs/metrics.h"
#include "planner/strategy.h"

namespace intcomp::planner {

namespace {

// §7.1: a list at least 1/5 of its universe wants a bitmap.
constexpr double kBitmapDensity = 0.2;

// |L| / universe, with the universe min(domain, max+1). domain == 0 means
// "unknown", never "tiny": the value range stands in, so an arbitrarily
// sparse list is never mistaken for a fully dense one.
double Density(std::span<const uint32_t> sorted, uint64_t domain) {
  if (sorted.empty()) return 0.0;
  const uint64_t value_range = uint64_t{sorted.back()} + 1;
  const uint64_t universe =
      domain == 0 ? value_range : std::min(domain, value_range);
  return static_cast<double>(sorted.size()) / static_cast<double>(universe);
}

void BumpBuildChoice(std::string_view codec_name) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.Enabled()) return;
  std::string name = "planner.build.choice.";
  name.append(codec_name);
  reg.AddCounter(name, 1);
}

}  // namespace

PlannerCodec::PlannerCodec(std::vector<const Codec*> pool,
                           Selection selection, std::string_view name)
    : pool_(std::move(pool)), selection_(selection), name_(name) {
  assert(!pool_.empty() && pool_.size() <= 255);
}

uint8_t PlannerCodec::SelectCodec(
    std::span<const uint32_t> sorted, uint64_t domain,
    std::unique_ptr<CompressedSet>* encoded) const {
  if (pool_.size() == 1) {
    *encoded = pool_[0]->Encode(sorted, domain);
    return 0;
  }
  if (selection_ == Selection::kStats) {
    const CodecFamily want = Density(sorted, domain) >= kBitmapDensity
                                 ? CodecFamily::kBitmap
                                 : CodecFamily::kInvertedList;
    uint8_t tag = 0;  // no codec of the wanted family: first candidate
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i]->Family() == want) {
        tag = static_cast<uint8_t>(i);
        break;
      }
    }
    *encoded = pool_[tag]->Encode(sorted, domain);
    return tag;
  }
  // Size-first trial: every candidate's exact image size (EncodedSize, no
  // image built), smallest wins, lowest pool index breaks ties —
  // deterministic, and by construction no single pool member beats the
  // per-list minimum in total size. Only the winner is encoded.
  uint8_t best = 0;
  size_t best_bytes = pool_[0]->EncodedSize(sorted, domain);
  for (size_t i = 1; i < pool_.size(); ++i) {
    const size_t bytes = pool_[i]->EncodedSize(sorted, domain);
    if (bytes < best_bytes) {
      best_bytes = bytes;
      best = static_cast<uint8_t>(i);
    }
  }
  *encoded = pool_[best]->Encode(sorted, domain);
  return best;
}

std::unique_ptr<CompressedSet> PlannerCodec::Encode(
    std::span<const uint32_t> sorted, uint64_t domain) const {
  obs::ScopedOpTimer timer(Name(), obs::OpKind::kPlannerBuild);
  auto set = std::make_unique<Set>();
  set->tag = SelectCodec(sorted, domain, &set->inner);
  set->codec = pool_[set->tag];
  BumpBuildChoice(set->codec->Name());
  return set;
}

void PlannerCodec::Decode(const CompressedSet& set,
                          std::vector<uint32_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  s.codec->Decode(*s.inner, out);
}

void PlannerCodec::Intersect(const CompressedSet& a, const CompressedSet& b,
                             std::vector<uint32_t>* out) const {
  const auto& sa = static_cast<const Set&>(a);
  const auto& sb = static_cast<const Set&>(b);
  PlannedIntersect(TaggedSet{sa.codec, sa.inner.get()},
                   TaggedSet{sb.codec, sb.inner.get()}, SetOpStrategy::kAuto,
                   CostModel::Default(), out);
}

void PlannerCodec::Union(const CompressedSet& a, const CompressedSet& b,
                         std::vector<uint32_t>* out) const {
  const auto& sa = static_cast<const Set&>(a);
  const auto& sb = static_cast<const Set&>(b);
  UnionTagged(TaggedSet{sa.codec, sa.inner.get()},
              TaggedSet{sb.codec, sb.inner.get()}, out);
}

void PlannerCodec::IntersectWithList(const CompressedSet& a,
                                     std::span<const uint32_t> probe,
                                     std::vector<uint32_t>* out) const {
  const auto& s = static_cast<const Set&>(a);
  s.codec->IntersectWithList(*s.inner, probe, out);
}

void PlannerCodec::Serialize(const CompressedSet& set,
                             std::vector<uint8_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  ByteWriter(out).PutU8(s.tag);
  s.codec->Serialize(*s.inner, out);
}

std::unique_ptr<CompressedSet> PlannerCodec::Deserialize(const uint8_t* data,
                                                         size_t size) const {
  if (size < 1 || data[0] >= pool_.size()) return nullptr;
  auto set = std::make_unique<Set>();
  set->tag = data[0];
  set->codec = pool_[set->tag];
  set->inner = set->codec->Deserialize(data + 1, size - 1);
  if (set->inner == nullptr) return nullptr;
  return set;
}

StatusOr<std::unique_ptr<CompressedSet>> PlannerCodec::DeserializeChecked(
    std::span<const uint8_t> image, uint64_t domain) const {
  if (image.empty()) {
    return Status::Corrupt(name_ + ": empty image (missing codec tag)");
  }
  if (image[0] >= pool_.size()) {
    return Status::Corrupt(name_ + ": codec tag outside candidate pool");
  }
  auto set = std::make_unique<Set>();
  set->tag = image[0];
  set->codec = pool_[set->tag];
  auto inner = set->codec->DeserializeChecked(image.subspan(1), domain);
  if (!inner.ok()) return inner.status();
  set->inner = std::move(inner.value());
  return StatusOr<std::unique_ptr<CompressedSet>>(std::move(set));
}

Status PlannerCodec::ValidateSet(const CompressedSet& set,
                                 uint64_t domain) const {
  const auto& s = static_cast<const Set&>(set);
  if (s.inner == nullptr) return Status::Corrupt(name_ + ": missing inner set");
  if (s.tag >= pool_.size() || s.codec != pool_[s.tag]) {
    return Status::Corrupt(name_ + ": codec tag outside candidate pool");
  }
  return s.codec->ValidateSet(*s.inner, domain);
}

}  // namespace intcomp::planner

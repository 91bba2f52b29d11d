#include "service/delta_overlay.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace intcomp {
namespace {

// a := a \ b over sorted unique vectors.
void EraseSorted(std::vector<uint32_t>* a, std::span<const uint32_t> b) {
  if (a->empty() || b.empty()) return;
  std::vector<uint32_t> out;
  out.reserve(a->size());
  std::set_difference(a->begin(), a->end(), b.begin(), b.end(),
                      std::back_inserter(out));
  *a = std::move(out);
}

// a := a ∪ b over sorted unique vectors.
void MergeSorted(std::vector<uint32_t>* a, std::span<const uint32_t> b) {
  if (b.empty()) return;
  std::vector<uint32_t> out;
  out.reserve(a->size() + b.size());
  std::set_union(a->begin(), a->end(), b.begin(), b.end(),
                 std::back_inserter(out));
  *a = std::move(out);
}

}  // namespace

void CanonicalizeRows(std::vector<uint32_t>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

void ApplyDelta(std::span<const uint32_t> base, const ListDelta& delta,
                std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(base.size() + delta.inserts.size());
  auto del = delta.deletes.begin();
  auto ins = delta.inserts.begin();
  for (uint32_t row : base) {
    while (del != delta.deletes.end() && *del < row) ++del;
    if (del != delta.deletes.end() && *del == row) continue;
    while (ins != delta.inserts.end() && *ins < row) out->push_back(*ins++);
    if (ins != delta.inserts.end() && *ins == row) ++ins;
    out->push_back(row);
  }
  out->insert(out->end(), ins, delta.inserts.end());
}

void FoldShardList(const Codec& codec, const ShardRouter& router,
                   size_t shard, const CompressedSet& base_set,
                   const ListDelta* delta, FoldScratch* scratch,
                   std::vector<uint32_t>* out) {
  const uint32_t begin = static_cast<uint32_t>(router.Begin(shard));
  const uint64_t end = router.End(shard);
  // The shard's slice of one polarity, rebased to local ids.
  auto take = [&](const std::vector<uint32_t>& global,
                  std::vector<uint32_t>* local) {
    local->clear();
    auto lo = std::lower_bound(global.begin(), global.end(), begin);
    auto hi = std::lower_bound(lo, global.end(), end);
    for (auto it = lo; it != hi; ++it) local->push_back(*it - begin);
  };
  if (delta != nullptr) {
    take(delta->inserts, &scratch->slice.inserts);
    take(delta->deletes, &scratch->slice.deletes);
  }
  if (delta == nullptr || scratch->slice.Empty()) {
    codec.Decode(base_set, out);
    return;
  }
  codec.Decode(base_set, &scratch->base);
  ApplyDelta(scratch->base, scratch->slice, out);
}

void DeltaMap::Insert(uint32_t list, std::span<const uint32_t> rows) {
  if (rows.empty()) return;
  ListDelta& d = map_[list];
  EraseSorted(&d.deletes, rows);
  MergeSorted(&d.inserts, rows);
  if (d.Empty()) map_.erase(list);
  ++version_;
}

void DeltaMap::Remove(uint32_t list, std::span<const uint32_t> rows) {
  if (rows.empty()) return;
  ListDelta& d = map_[list];
  EraseSorted(&d.inserts, rows);
  MergeSorted(&d.deletes, rows);
  if (d.Empty()) map_.erase(list);
  ++version_;
}

std::vector<std::pair<uint32_t, ListDelta>> DeltaMap::Copy() const {
  std::vector<std::pair<uint32_t, ListDelta>> out;
  out.reserve(map_.size());
  for (const auto& [list, delta] : map_) out.emplace_back(list, delta);
  return out;
}

void DeltaMap::Subtract(
    const std::vector<std::pair<uint32_t, ListDelta>>& frozen) {
  for (const auto& [list, folded] : frozen) {
    auto it = map_.find(list);
    if (it == map_.end()) continue;
    EraseSorted(&it->second.inserts, folded.inserts);
    EraseSorted(&it->second.deletes, folded.deletes);
    if (it->second.Empty()) map_.erase(it);
  }
  ++version_;
}

void DeltaMap::Clear() {
  map_.clear();
  ++version_;
}

size_t DeltaMap::DeltaRows() const {
  size_t n = 0;
  for (const auto& [list, delta] : map_) n += delta.Rows();
  return n;
}

OverlaySnapshot::OverlaySnapshot(
    std::shared_ptr<const IndexSnapshot> base,
    std::vector<std::pair<uint32_t, ListDelta>> deltas)
    : base_(std::move(base)), deltas_(std::move(deltas)) {
  assert(base_ != nullptr);
  assert(std::is_sorted(deltas_.begin(), deltas_.end(),
                        [](const auto& a, const auto& b) {
                          return a.first < b.first;
                        }));
  shards_.reserve(base_->NumShards());
  for (size_t s = 0; s < base_->NumShards(); ++s) {
    auto state = std::make_unique<ShardState>();
    state->ptrs.assign(base_->NumLists(), nullptr);
    shards_.push_back(std::move(state));
  }
}

const ListDelta* OverlaySnapshot::FindDelta(uint32_t list) const {
  auto it = std::lower_bound(deltas_.begin(), deltas_.end(), list,
                             [](const auto& entry, uint32_t l) {
                               return entry.first < l;
                             });
  if (it == deltas_.end() || it->first != list) return nullptr;
  return &it->second;
}

size_t OverlaySnapshot::SizeInBytes() const {
  size_t delta_bytes = 0;
  for (const auto& [list, delta] : deltas_) {
    delta_bytes += delta.Rows() * sizeof(uint32_t);
  }
  return base_->SizeInBytes() + delta_bytes;
}

StatusOr<std::span<const CompressedSet* const>> OverlaySnapshot::PlanSets(
    size_t shard, std::span<const size_t> leaves) const {
  if (deltas_.empty()) return base_->PlanSets(shard, leaves);
  StatusOr<std::span<const CompressedSet* const>> base_sets =
      base_->PlanSets(shard, leaves);
  if (!base_sets.ok()) return base_sets.status();

  const ShardRouter& router = base_->Router();
  const Codec& c = base_->codec();

  ShardState& state = *shards_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  FoldScratch scratch;
  std::vector<uint32_t> effective;
  for (size_t leaf : leaves) {
    // Each slot is written once: queries read ensured slots outside the
    // lock, so rewriting even the same pointer would race with them.
    if (state.ptrs[leaf] != nullptr) continue;
    const ListDelta* delta = FindDelta(static_cast<uint32_t>(leaf));
    if (delta == nullptr) {
      // Clean list: alias the base's set.
      state.ptrs[leaf] = base_sets.value()[leaf];
      continue;
    }
    // Dirty list: folded and re-encoded at the shard's own domain, exactly
    // as a compacted index encodes it.
    FoldShardList(c, router, shard, *base_sets.value()[leaf], delta,
                  &scratch, &effective);
    state.owned.push_back(c.Encode(effective, router.ShardRows(shard)));
    state.ptrs[leaf] = state.owned.back().get();
  }
  return StatusOr<std::span<const CompressedSet* const>>(
      std::span<const CompressedSet* const>(state.ptrs.data(),
                                            state.ptrs.size()));
}

}  // namespace intcomp

// Delta overlay — the mutable half of the crash-safe write path
// (DESIGN.md §5.11).
//
// The base index (a ShardedIndex or MappedIndex snapshot) stays immutable;
// inserts and deletes accumulate in a per-list DeltaMap with *set*
// semantics: inserting a row cancels a pending delete of it and vice
// versa, so each touched row carries exactly one polarity (insert or
// delete) — never both. That choice is load-bearing twice over:
//
//   * WAL replay is idempotent. The delta state is a function of each
//     row's *last* recorded polarity, independent of the base, so
//     replaying a WAL whose early records were already folded into a
//     compacted base reconverges on the same effective index. Compaction
//     can therefore rename the container and rotate the WAL as two
//     separate atomic steps with a crash window between them.
//   * Compaction commit is a subtraction. The deltas folded into the new
//     base are removed from the live map per polarity list (a row whose
//     polarity changed mid-compaction keeps its newer polarity), so
//     updates racing a compaction are never lost.
//
// OverlaySnapshot presents base+delta through the IndexSnapshot interface:
// clean lists pass the base's compressed sets through untouched; dirty
// lists are materialized lazily per (shard, list) — FoldShardList decodes
// the base set and applies the shard's slice of the delta, then the result
// is re-encoded with the index codec — and cached for the snapshot's
// lifetime. Compaction runs the same fold for every (shard, list). A snapshot is immutable once
// built; every mutation publishes a fresh OverlaySnapshot over the same
// base (copy-on-write), which is what lets queries race mutations and
// compaction swaps while observing exactly one generation end to end.

#ifndef INTCOMP_SERVICE_DELTA_OVERLAY_H_
#define INTCOMP_SERVICE_DELTA_OVERLAY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/codec.h"
#include "service/snapshot.h"

namespace intcomp {

// Pending changes for one list: sorted unique global row ids, disjoint
// between the two polarities.
struct ListDelta {
  std::vector<uint32_t> inserts;
  std::vector<uint32_t> deletes;

  bool Empty() const { return inserts.empty() && deletes.empty(); }
  size_t Rows() const { return inserts.size() + deletes.size(); }
};

// Sorts and deduplicates a batch of row ids in place (the canonical form
// Insert/Remove and the WAL require).
void CanonicalizeRows(std::vector<uint32_t>* rows);

// out = (base \ delta.deletes) ∪ delta.inserts, all sorted unique, in
// one merge pass.
void ApplyDelta(std::span<const uint32_t> base, const ListDelta& delta,
                std::vector<uint32_t>* out);

// Working space for FoldShardList, reused across calls by one thread.
struct FoldScratch {
  std::vector<uint32_t> base;
  ListDelta slice;  // the shard's slice of the delta, in local ids
};

// The effective rows of one (shard, list) of base + delta, in the shard's
// local ids: `base_set` (the list's set in `shard`) decoded, minus the
// shard's slice of delta->deletes, plus its slice of delta->inserts (delta
// rows are global ids; the slice is the shard's range, rebased to local
// ids). A null delta is a clean list: the decoded base set. This is the one
// fold behind OverlaySnapshot's dirty lists and LiveIndex compaction, so a
// compacted base encodes exactly the rows the overlay served.
void FoldShardList(const Codec& codec, const ShardRouter& router,
                   size_t shard, const CompressedSet& base_set,
                   const ListDelta* delta, FoldScratch* scratch,
                   std::vector<uint32_t>* out);

// Per-list delta accumulator. Not internally synchronized — LiveIndex
// serializes writers; readers only ever see immutable Copy() snapshots.
class DeltaMap {
 public:
  // `rows` sorted unique. Set semantics: rows move to the insert (resp.
  // delete) polarity regardless of their previous polarity.
  void Insert(uint32_t list, std::span<const uint32_t> rows);
  void Remove(uint32_t list, std::span<const uint32_t> rows);

  // Deep copy of the dirty lists, ordered by list id — the frozen view a
  // compaction folds into the base, and the state an OverlaySnapshot owns.
  std::vector<std::pair<uint32_t, ListDelta>> Copy() const;

  // Removes `frozen` rows from the live deltas, per polarity list: a row
  // the compaction folded as an insert is dropped from inserts only, so a
  // racing Remove of the same row (which moved it to deletes) survives.
  void Subtract(const std::vector<std::pair<uint32_t, ListDelta>>& frozen);

  void Clear();

  bool Dirty() const { return !map_.empty(); }
  size_t DirtyLists() const { return map_.size(); }
  size_t DeltaRows() const;
  // Bumped by every state change; lets LiveIndex skip republishing.
  uint64_t Version() const { return version_; }

 private:
  std::map<uint32_t, ListDelta> map_;  // ordered: deterministic iteration
  uint64_t version_ = 0;
};

// Immutable base+delta view. Thread-safe like every IndexSnapshot:
// materialization is guarded per shard.
class OverlaySnapshot final : public IndexSnapshot {
 public:
  // `deltas` sorted by list id (DeltaMap::Copy order), lists < NumLists(),
  // rows < NumRows().
  OverlaySnapshot(std::shared_ptr<const IndexSnapshot> base,
                  std::vector<std::pair<uint32_t, ListDelta>> deltas);

  const Codec& codec() const override { return base_->codec(); }
  const ShardRouter& Router() const override { return base_->Router(); }
  size_t NumLists() const override { return base_->NumLists(); }
  // Overlay results live in the base's key namespace; data differences
  // between overlay generations are already retired by the cache's
  // per-shard generation stamps.
  std::string_view CodecSignature() const override {
    return base_->CodecSignature();
  }

  // Base footprint plus the raw delta rows (materialized sets are a cache,
  // not an independent copy of the data, and are excluded to keep the
  // number stable across query orders).
  size_t SizeInBytes() const override;

  StatusOr<std::span<const CompressedSet* const>> PlanSets(
      size_t shard, std::span<const size_t> leaves) const override;

  size_t DirtyLists() const { return deltas_.size(); }

 private:
  struct ShardState {
    std::mutex mu;
    // Indexed by list id; null until ensured by a PlanSets call. Clean
    // lists alias the base's set, dirty lists point into `owned`.
    std::vector<const CompressedSet*> ptrs;
    std::vector<std::unique_ptr<CompressedSet>> owned;
  };

  const ListDelta* FindDelta(uint32_t list) const;

  std::shared_ptr<const IndexSnapshot> base_;
  std::vector<std::pair<uint32_t, ListDelta>> deltas_;  // sorted by list
  mutable std::vector<std::unique_ptr<ShardState>> shards_;
};

}  // namespace intcomp

#endif  // INTCOMP_SERVICE_DELTA_OVERLAY_H_

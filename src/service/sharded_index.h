// ShardedIndex + IndexService — the multi-index orchestration layer of the
// sharded snapshot index service (DESIGN.md §5.9).
//
// ShardedIndex partitions a column's row space into S contiguous range
// shards (ShardRouter); each shard is an independent per-value compressed
// index over its sub-range, holding *local* row ids so every codec encodes
// the same dense id space it would see in a standalone index. Column shards
// are literally BitmapIndex::BuildRange products; list- and posting-built
// shards use the identical per-range split.
//
// One encode driver, BuildFromRows, builds every list-shaped index: it
// encodes (shard, list) items in parallel from a caller's row source. Build
// slices global lists; LiveIndex compaction folds a base snapshot with its
// deltas one (shard, list) at a time, so it never holds a decoded index.
//
// IndexService is the query front end:
//   1. plan once   — validate leaf references, compute the canonical cache
//                    key (commutative operands sorted — result_cache.h);
//   2. probe cache — a hit decodes the stored compressed result and returns
//                    (bit-identical to fresh evaluation: codecs are
//                    lossless);
//   3. fan out     — one task per shard on the shared ThreadPool, each
//                    evaluating the plan over its shard's sets through
//                    EvaluatePlanChecked with the executing worker's
//                    ScratchArena;
//   4. stitch      — rebase each shard's local row ids by the shard's range
//                    base and concatenate in shard order (ranges are
//                    ordered, so the concatenation is the globally sorted
//                    result — no merge);
//   5. admit       — offer the result to the cache (admission gates inside).
//
// Determinism: per-shard evaluation runs the untouched serial algorithm and
// the stitch order is fixed by the router, so the service result is
// bit-identical to unsharded serial EvaluatePlan for every codec at every
// shard/thread count — the invariant the service tests pin down.
//
// Concurrency: the index is an immutable snapshot; Query may be called from
// several threads at once (per-worker arenas are only touched by the worker
// that owns them, the cache locks internally, stats are atomics). Data
// changes are modeled by swapping in a new snapshot — SwapSnapshot, which
// also invalidates every shard — or, for in-place shard rebuilds, calling
// Invalidate(shard); both bump the cache's generation counters so every
// stale entry mismatches on its next probe.
//
// The service queries any IndexSnapshot (service/snapshot.h): ShardedIndex
// here, or storage/mapped_index.h's MappedIndex serving a container file
// zero-copy. A lazily-validated snapshot can fail PlanSets with
// kCorruptData; the service surfaces that as the query's Status.

#ifndef INTCOMP_SERVICE_SHARDED_INDEX_H_
#define INTCOMP_SERVICE_SHARDED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/usable_cpus.h"
#include "core/codec.h"
#include "core/query.h"
#include "core/scratch.h"
#include "engine/thread_pool.h"
#include "index/inverted_index.h"
#include "service/result_cache.h"
#include "service/shard_router.h"
#include "service/snapshot.h"

namespace intcomp {

namespace obs {
struct QueryExplain;
}  // namespace obs

class ShardedIndex final : public IndexSnapshot {
 public:
  // Builds from per-list sorted row-id lists (values < num_rows): list l of
  // shard s holds lists[l] ∩ [Begin(s), End(s)), rebased to local ids.
  // num_rows must be >= 1 and <= 2^32. Runs on BuildFromRows.
  static ShardedIndex Build(const Codec& codec,
                            std::span<const std::vector<uint32_t>> lists,
                            uint64_t num_rows, size_t num_shards);

  // The (shard, list) encode driver behind Build and LiveIndex compaction.
  // One item per (shard, list), shard-major. Workers claim items off one
  // atomic counter; for each, `rows(s, l, &local)` writes list l's rows in
  // shard s (local ids, sorted unique) into `local`, and the worker encodes
  // them at the shard's domain into the item's own slot. Shards are adopted
  // in order, so the index is identical for any worker count. Each worker
  // calls its own copy of `rows`: state the source captures by value (fold
  // scratch, say) is per worker and reused across that worker's items.
  //
  // The workers are up to one short-lived thread per CPU in the process's
  // affinity mask (the caller is one of them), not the shared ThreadPool,
  // so this is safe to call from a pool worker (LiveIndex compaction does).
  // A helper thread that cannot be created is skipped rather than reported.
  // `codec.Encode` and `rows` must be safe to call concurrently.
  template <typename RowSource>
  static ShardedIndex BuildFromRows(const Codec& codec,
                                    const ShardRouter& router,
                                    size_t num_lists, const RowSource& rows);

  // Builds from a column of value codes (0 .. cardinality-1) in row order:
  // list l is the row set of value l. Each shard is produced by
  // BitmapIndex::BuildRange over its sub-range.
  static ShardedIndex BuildFromColumn(const Codec& codec,
                                      std::span<const uint32_t> column_codes,
                                      uint32_t cardinality, size_t num_shards);

  // Builds from a finalized InvertedIndex: list l is the posting list of
  // terms[l] (which must all exist in `index`), re-partitioned across
  // doc-range shards.
  static ShardedIndex BuildFromPostings(
      const Codec& codec, const InvertedIndex& index,
      std::span<const std::string_view> terms, size_t num_shards);

  ShardedIndex(ShardedIndex&&) = default;
  ShardedIndex& operator=(ShardedIndex&&) = default;

  const Codec& codec() const override { return *codec_; }
  const ShardRouter& Router() const override { return router_; }
  size_t NumLists() const override { return num_lists_; }

  // Computed once at build time from the per-list effective codec tags
  // (service/snapshot.h's CodecSignatureBuilder); equals the codec name for
  // every fixed codec.
  std::string_view CodecSignature() const override { return codec_signature_; }

  // Total compressed footprint across all shards.
  size_t SizeInBytes() const override;

  // Shard s's compressed sets, indexed by list id (plan leaves index into
  // this span).
  std::span<const CompressedSet* const> ShardSets(size_t s) const {
    return ptrs_[s];
  }

  // Everything is materialized at build time, so this never fails.
  StatusOr<std::span<const CompressedSet* const>> PlanSets(
      size_t s, std::span<const size_t> /*leaves*/) const override {
    return StatusOr<std::span<const CompressedSet* const>>(ShardSets(s));
  }

 private:
  ShardedIndex(const Codec* codec, ShardRouter router, size_t num_lists)
      : codec_(codec), router_(router), num_lists_(num_lists) {}

  void AdoptShard(std::vector<std::unique_ptr<CompressedSet>> sets);
  void FinishCodecSignature();  // after the last AdoptShard

  const Codec* codec_;
  ShardRouter router_;
  size_t num_lists_;
  std::string codec_signature_;
  std::vector<std::vector<std::unique_ptr<CompressedSet>>> sets_;  // [shard]
  std::vector<std::vector<const CompressedSet*>> ptrs_;            // [shard]
};

template <typename RowSource>
ShardedIndex ShardedIndex::BuildFromRows(const Codec& codec,
                                         const ShardRouter& router,
                                         size_t num_lists,
                                         const RowSource& rows) {
  ShardedIndex index(&codec, router, num_lists);
  const size_t num_items = router.NumShards() * num_lists;
  std::vector<std::unique_ptr<CompressedSet>> encoded(num_items);
  std::atomic<size_t> next{0};
  auto work = [&] {
    RowSource source = rows;
    std::vector<uint32_t> local;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < num_items; i = next.fetch_add(1, std::memory_order_relaxed)) {
      const size_t s = i / num_lists;
      source(s, i % num_lists, &local);
      encoded[i] = codec.Encode(local, router.ShardRows(s));
    }
  };
  // Short-lived threads rather than the shared ThreadPool: compaction runs
  // on a pool worker, where a pool-wide Wait() would convoy with (or
  // deadlock on) the very task that is waiting. The calling thread is one
  // of the workers, so a process allowed on one CPU spawns none. A helper
  // that cannot be created (EAGAIN under a thread or pid limit) is simply
  // not added: the caller and the helpers already running still drain
  // every item.
  const size_t num_workers = std::min(UsableCpus(), num_items);
  {
    std::vector<std::jthread> helpers;  // joined on scope exit
    helpers.reserve(num_workers);
    try {
      for (size_t t = 1; t < num_workers; ++t) helpers.emplace_back(work);
    } catch (const std::system_error&) {
    }
    work();
  }

  for (size_t s = 0; s < router.NumShards(); ++s) {
    const auto first = encoded.begin() + static_cast<ptrdiff_t>(s * num_lists);
    index.AdoptShard({std::make_move_iterator(first),
                      std::make_move_iterator(first + num_lists)});
  }
  index.FinishCodecSignature();
  return index;
}

struct IndexServiceOptions {
  // Result cache; set enabled=false to evaluate every query.
  bool cache_enabled = true;
  ResultCacheOptions cache;
};

// Point-in-time cache and query counters the service exposes (the metrics
// registry's service.* counters count the same outcomes when enabled).
struct ServiceStats {
  ResultCacheStats cache;
  uint64_t queries = 0;
  uint64_t rejected = 0;  // invalid plans (bad leaf, empty operator node)
};

class IndexService {
 public:
  // `index` and `pool` are borrowed and must outlive the service.
  IndexService(const IndexSnapshot* index, ThreadPool* pool,
               const IndexServiceOptions& options);

  // Shared-ownership flavor: the service keeps the snapshot alive as long
  // as it (or an in-flight query) still uses it — the write path swaps
  // snapshots while queries run, so borrowed lifetimes are not enough.
  IndexService(std::shared_ptr<const IndexSnapshot> index, ThreadPool* pool,
               const IndexServiceOptions& options);

  // Evaluates `plan` (leaves are list ids of the index) and writes the
  // matching global row ids, sorted ascending, into *out. Returns
  // kInvalidArgument for malformed plans (leaf out of range, empty operator
  // node), kCorruptData when a lazily-validated snapshot rejects a payload;
  // on any non-OK status *out is empty.
  Status Query(const QueryPlan& plan, std::vector<uint32_t>* out);

  // Deadline/cancellation flavor (the network front end's entry point):
  // `token` is polled once before the cache probe — so a request that
  // arrives already past its deadline fails fast even when the answer is
  // cached — and then at every plan-node boundary inside each shard's
  // evaluation, bounding cancellation latency by one decode/intersect.
  // Returns kDeadlineExceeded / kCancelled with *out empty; a null token is
  // exactly the plain Query. (Token precedes `out` so the overload never
  // collides with the QueryExplain* flavor on a literal nullptr.)
  Status Query(const QueryPlan& plan, const CancellationToken* token,
               std::vector<uint32_t>* out);

  // EXPLAIN flavor: additionally captures the full decision/timing tree for
  // this one query into *explain — per-plan-node attribution, per-list codec
  // choices, the planner's per-pair strategy with estimated vs. measured
  // cost, cache probe outcome, and the per-shard fan-out/stitch breakdown
  // (obs/explain.h). Costs a mutex-protected event append per decision, paid
  // only by queries that ask; with explain == nullptr this is exactly the
  // plain Query. The capture itself never changes results: the evaluation
  // path is shared.
  Status Query(const QueryPlan& plan, std::vector<uint32_t>* out,
               obs::QueryExplain* explain);

  // Marks shard s's underlying data as changed: bumps the cache generation
  // so no result computed before this call can be served again.
  void Invalidate(size_t shard);

  // Replaces the served snapshot (e.g. remapping a rewritten container
  // file, or publishing a new delta overlay). `next` must agree with the
  // current snapshot on shard count — the cache's generation table is
  // sized per shard. Every shard is invalidated, so no result computed
  // against the old snapshot can be served again. Safe concurrently with
  // Query: an in-flight query pins the snapshot it started on (copy-on-
  // write), so each query observes exactly one generation end to end.
  Status SwapSnapshot(std::shared_ptr<const IndexSnapshot> next);

  // Borrowed-lifetime flavor, matching the borrowed constructor: `next`
  // must outlive the service and every in-flight query on it.
  Status SwapSnapshot(const IndexSnapshot* next);

  // The currently served snapshot. The reference flavor is only safe while
  // no concurrent SwapSnapshot can retire it; Snapshot() pins it.
  const IndexSnapshot& Index() const { return *index_; }
  std::shared_ptr<const IndexSnapshot> Snapshot() const;
  ResultCache* Cache() { return cache_.get(); }
  ServiceStats Stats() const;

 private:
  Status QueryImpl(const QueryPlan& plan, const CancellationToken* token,
                   std::vector<uint32_t>* out);
  // Refreshes the service.cache.* occupancy gauges (entries, bytes,
  // evictions) when the metrics registry is enabled.
  void PublishCacheGauges();

  mutable std::mutex index_mu_;  // guards index_ (pointer copy only)
  std::shared_ptr<const IndexSnapshot> index_;
  ThreadPool* pool_;
  std::unique_ptr<ResultCache> cache_;  // null when disabled
  std::vector<std::unique_ptr<ScratchArena>> arenas_;  // one per pool worker
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace intcomp

#endif  // INTCOMP_SERVICE_SHARDED_INDEX_H_

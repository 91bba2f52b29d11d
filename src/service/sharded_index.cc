#include "service/sharded_index.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "index/bitmap_index.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace intcomp {

void ShardedIndex::AdoptShard(
    std::vector<std::unique_ptr<CompressedSet>> sets) {
  assert(sets.size() == num_lists_);
  std::vector<const CompressedSet*> ptrs;
  ptrs.reserve(sets.size());
  for (const auto& s : sets) ptrs.push_back(s.get());
  sets_.push_back(std::move(sets));
  ptrs_.push_back(std::move(ptrs));
}

void ShardedIndex::FinishCodecSignature() {
  CodecSignatureBuilder builder(codec_->Name());
  for (const auto& shard : sets_) {
    for (const auto& set : shard) builder.AddListTag(codec_->SetCodecName(*set));
  }
  codec_signature_ = builder.Finish();
}

ShardedIndex ShardedIndex::Build(const Codec& codec,
                                 std::span<const std::vector<uint32_t>> lists,
                                 uint64_t num_rows, size_t num_shards) {
  assert(num_rows >= 1 && num_rows <= (uint64_t{1} << 32));
  const ShardRouter router(num_rows, num_shards);
  return BuildFromRows(
      codec, router, lists.size(),
      [&](size_t s, size_t l, std::vector<uint32_t>* local) {
        const std::vector<uint32_t>& list = lists[l];
        // The shard's slice of the list, rebased to local ids.
        const uint32_t begin = static_cast<uint32_t>(router.Begin(s));
        auto lo = std::lower_bound(list.begin(), list.end(), begin);
        auto hi = std::lower_bound(lo, list.end(),
                                   static_cast<uint64_t>(router.End(s)));
        local->clear();
        local->reserve(static_cast<size_t>(hi - lo));
        for (auto it = lo; it != hi; ++it) local->push_back(*it - begin);
      });
}

ShardedIndex ShardedIndex::BuildFromColumn(
    const Codec& codec, std::span<const uint32_t> column_codes,
    uint32_t cardinality, size_t num_shards) {
  assert(!column_codes.empty());
  const ShardRouter router(column_codes.size(), num_shards);
  ShardedIndex index(&codec, router, cardinality);
  for (size_t s = 0; s < router.NumShards(); ++s) {
    index.AdoptShard(BitmapIndex::BuildRange(codec, column_codes, cardinality,
                                             router.Begin(s), router.End(s))
                         .ReleaseSets());
  }
  index.FinishCodecSignature();
  return index;
}

ShardedIndex ShardedIndex::BuildFromPostings(
    const Codec& codec, const InvertedIndex& index,
    std::span<const std::string_view> terms, size_t num_shards) {
  std::vector<std::vector<uint32_t>> lists;
  lists.reserve(terms.size());
  for (std::string_view term : terms) {
    const CompressedSet* posting = index.PostingFor(term);
    assert(posting != nullptr);
    lists.emplace_back();
    codec.Decode(*posting, &lists.back());
  }
  return Build(codec, lists, index.NumDocuments(), num_shards);
}

size_t ShardedIndex::SizeInBytes() const {
  size_t total = 0;
  for (const auto& shard : sets_) {
    for (const auto& set : shard) total += set->SizeInBytes();
  }
  return total;
}

namespace {

// Shape validation fused with leaf collection: the sorted, deduplicated
// leaf list is what lazily-materialized snapshots need from PlanSets.
Status CollectPlanLeaves(const QueryPlan& plan, size_t num_lists,
                         std::vector<size_t>* leaves) {
  if (plan.op == QueryPlan::Op::kLeaf) {
    if (plan.leaf >= num_lists) {
      return Status::InvalidArgument("plan leaf out of range");
    }
    leaves->push_back(plan.leaf);
    return Status::Ok();
  }
  if (plan.children.empty()) {
    return Status::InvalidArgument("operator node with no children");
  }
  for (const QueryPlan& child : plan.children) {
    Status st = CollectPlanLeaves(child, num_lists, leaves);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

void BumpServiceCounter(const char* name) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (reg.Enabled()) reg.AddCounter(name, 1);
}

}  // namespace

IndexService::IndexService(const IndexSnapshot* index, ThreadPool* pool,
                           const IndexServiceOptions& options)
    // Borrowed snapshot: shared_ptr with a no-op deleter keeps the old
    // raw-pointer contract (caller owns, must outlive the service).
    : IndexService(std::shared_ptr<const IndexSnapshot>(
                       index, [](const IndexSnapshot*) {}),
                   pool, options) {}

IndexService::IndexService(std::shared_ptr<const IndexSnapshot> index,
                           ThreadPool* pool,
                           const IndexServiceOptions& options)
    : index_(std::move(index)), pool_(pool) {
  if (options.cache_enabled) {
    cache_ = std::make_unique<ResultCache>(options.cache, index_->NumShards());
  }
  arenas_.reserve(pool->NumWorkers());
  for (size_t w = 0; w < pool->NumWorkers(); ++w) {
    arenas_.push_back(std::make_unique<ScratchArena>());
  }
}

std::shared_ptr<const IndexSnapshot> IndexService::Snapshot() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_;
}

Status IndexService::Query(const QueryPlan& plan, std::vector<uint32_t>* out) {
  return QueryImpl(plan, nullptr, out);
}

Status IndexService::Query(const QueryPlan& plan,
                           const CancellationToken* token,
                           std::vector<uint32_t>* out) {
  return QueryImpl(plan, token, out);
}

Status IndexService::Query(const QueryPlan& plan, std::vector<uint32_t>* out,
                           obs::QueryExplain* explain) {
  if (explain == nullptr) return QueryImpl(plan, nullptr, out);
  obs::ExplainSink sink;
  Status st;
  {
    // Activate capture for this thread; the fan-out forwards it to workers
    // (ThreadPool::Enqueue), so their scopes land in the same sink.
    obs::ScopedExplainCapture capture(&sink);
    st = QueryImpl(plan, nullptr, out);
  }
  *explain = sink.Build();
  return st;
}

Status IndexService::QueryImpl(const QueryPlan& plan,
                               const CancellationToken* token,
                               std::vector<uint32_t>* out) {
  TRACE_SPAN("service.query");
  // Read the cache stamp *before* pinning the snapshot. SwapSnapshot
  // publishes index_ before it bumps the generations (both seq_cst), so a
  // stamp that saw a bump implies the new snapshot is pinned below; a swap
  // after this read leaves the rows under a stale, unservable stamp.
  const uint64_t stamp = cache_ != nullptr ? cache_->CurrentStamp() : 0;
  // Pin the snapshot once: a concurrent SwapSnapshot retires index_, but
  // this query keeps evaluating the generation it started on.
  const std::shared_ptr<const IndexSnapshot> index = Snapshot();
  obs::ScopedOpTimer timer(index->codec().Name(),
                           obs::OpKind::kServiceQuery);
  obs::ExplainScope explain_scope("service.query");
  if (explain_scope.active()) {
    explain_scope.AddStr("codec", index->codec().Name());
    explain_scope.AddStr("signature", index->CodecSignature());
    explain_scope.AddUint("shards", index->NumShards());
  }
  out->clear();
  queries_.fetch_add(1, std::memory_order_relaxed);

  // Fail fast before any work — including the cache probe — so a request
  // that arrives with an already-expired deadline costs one clock read and
  // returns deterministically, cached answer or not.
  if (token != nullptr) {
    Status gate = token->Check();
    if (!gate.ok()) return gate;
  }

  // Plan once: shape validation plus the canonical cache key; the fan-out
  // below reuses the original plan (same algebra, so the cache entry is
  // valid for every commutation of it).
  std::vector<size_t> leaves;
  Status shape = CollectPlanLeaves(plan, index->NumLists(), &leaves);
  if (!shape.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return shape;
  }
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  if (explain_scope.active()) {
    explain_scope.AddUint("lists", leaves.size());
  }
  std::string key;
  if (cache_ != nullptr) {
    // Key by the snapshot's representation signature, not the bare codec
    // name: two Planner-built snapshots with different per-list codec
    // choices must not share a key namespace.
    key = PlanCacheKey(index->CodecSignature(), plan);
    obs::ExplainScope probe("cache.probe");
    const bool hit = cache_->Get(key, out);
    if (probe.active()) {
      probe.AddStr("key", key);
      probe.AddUint("stamp", stamp);
      probe.AddStr("outcome", hit ? "hit" : "miss");
      if (hit) probe.AddUint("rows", out->size());
    }
    if (hit) {
      BumpServiceCounter("service.cache.hit");
      return Status::Ok();
    }
  } else {
    obs::ExplainScope probe("cache.probe");
    probe.AddStr("outcome", "disabled");
  }

  const size_t num_shards = index->NumShards();
  std::vector<std::vector<uint32_t>> parts(num_shards);
  std::vector<Status> statuses(num_shards);
  {
    TRACE_SPAN("service.fanout");
    obs::ExplainScope fanout("service.fanout");
    fanout.AddUint("shards", num_shards);
    pool_->ParallelFor(0, num_shards, [&](size_t s, size_t worker) {
      TRACE_SPAN("service.shard");
      // Ordinal = shard id: racing shard scopes sort deterministically in
      // the built tree no matter which worker ran them.
      obs::ExplainScope shard_scope("service.shard", /*ordinal=*/s);
      shard_scope.AddUint("shard", s);
      // Materialization failures (lazy mapped snapshots) fail just this
      // query, with the snapshot's kCorruptData status.
      StatusOr<std::span<const CompressedSet* const>> sets =
          index->PlanSets(s, leaves);
      if (!sets.ok()) {
        statuses[s] = sets.status();
        if (shard_scope.active()) {
          shard_scope.AddStr("status", sets.status().message());
        }
        return;
      }
      if (shard_scope.active()) {
        // Per-touched-list codec attribution: what the planner chose for
        // each list this shard actually serves (EffectiveFamily /
        // SetCodecName resolve adaptive wrappers per set).
        const Codec& codec = index->codec();
        for (size_t l : leaves) {
          const CompressedSet* set = sets.value()[l];
          if (set == nullptr) continue;
          obs::ExplainScope list_scope("list", /*ordinal=*/l);
          list_scope.AddUint("list", l);
          list_scope.AddStr("codec", codec.SetCodecName(*set));
          list_scope.AddStr("family",
                            codec.EffectiveFamily(*set) ==
                                    CodecFamily::kBitmap
                                ? "bitmap"
                                : "list");
          list_scope.AddUint("bytes", set->SizeInBytes());
          list_scope.AddUint("card", set->Cardinality());
        }
      }
      statuses[s] =
          EvaluatePlanChecked(index->codec(), plan, sets.value(),
                              token, arenas_[worker].get(), &parts[s]);
      if (shard_scope.active()) {
        shard_scope.AddUint("rows", parts[s].size());
        if (!statuses[s].ok()) {
          shard_scope.AddStr("status", statuses[s].message());
        }
      }
    });
  }
  for (const Status& st : statuses) {
    if (!st.ok()) {
      out->clear();
      // Deadline/cancellation are caller outcomes, not plan rejections.
      if (st.code() == StatusCode::kInvalidArgument) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
      }
      return st;
    }
  }

  {
    TRACE_SPAN("service.stitch");
    obs::ExplainScope stitch("service.stitch");
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    out->reserve(total);
    const ShardRouter& router = index->Router();
    for (size_t s = 0; s < num_shards; ++s) {
      router.Rebase(s, parts[s], out);
    }
    stitch.AddUint("rows", total);
  }

  if (cache_ != nullptr) {
    const bool admitted =
        cache_->PutWithStamp(key, index->codec(), *out, index->NumRows(),
                             stamp);
    {
      obs::ExplainScope admit("cache.admit");
      admit.AddStr("outcome", admitted ? "stored" : "rejected");
    }
    PublishCacheGauges();
    BumpServiceCounter("service.cache.miss");
  } else {
    BumpServiceCounter("service.cache.bypass");
  }
  if (explain_scope.active()) {
    explain_scope.AddUint("rows", out->size());
  }
  return Status::Ok();
}

void IndexService::PublishCacheGauges() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (cache_ == nullptr || !reg.Enabled()) return;
  reg.SetGauge("service.cache.bytes", cache_->SizeInBytes());
  reg.SetGauge("service.cache.entries", cache_->Entries());
  reg.SetGauge("service.cache.evictions", cache_->Snapshot().evicted);
}

void IndexService::Invalidate(size_t shard) {
  if (cache_ != nullptr) cache_->BumpGeneration(shard);
  BumpServiceCounter("service.cache.invalidation");
  PublishCacheGauges();
}

Status IndexService::SwapSnapshot(std::shared_ptr<const IndexSnapshot> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("null snapshot");
  }
  const size_t num_shards = next->NumShards();
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    if (num_shards != index_->NumShards()) {
      return Status::InvalidArgument(
          "snapshot shard count mismatch (cache generations are per shard)");
    }
    index_ = std::move(next);
  }
  // Invalidate after the swap: a query that pinned the old snapshot read its
  // stamp before these bumps (QueryImpl reads the stamp first), so the bumps
  // below retire whatever it caches.
  for (size_t s = 0; s < num_shards; ++s) Invalidate(s);
  BumpServiceCounter("service.snapshot.swap");
  return Status::Ok();
}

Status IndexService::SwapSnapshot(const IndexSnapshot* next) {
  if (next == nullptr) {
    return Status::InvalidArgument("null snapshot");
  }
  return SwapSnapshot(std::shared_ptr<const IndexSnapshot>(
      next, [](const IndexSnapshot*) {}));
}

ServiceStats IndexService::Stats() const {
  ServiceStats s;
  if (cache_ != nullptr) s.cache = cache_->Snapshot();
  s.queries = queries_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace intcomp

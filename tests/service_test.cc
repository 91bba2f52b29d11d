// Tests for the sharded snapshot index service (src/service): row-range
// partitioning, canonical cache keys, and the service's core guarantee —
// results bit-identical to the unsharded serial path for every codec at 1,
// 2, and 8 shards, including results served from the compressed cache.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/thread_pool.h"
#include "index/bitmap_index.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "service/result_cache.h"
#include "service/shard_router.h"
#include "service/sharded_index.h"
#include "test_util.h"

namespace intcomp {
namespace {

// ------------------------------------------------------------- ShardRouter

TEST(ShardRouterTest, RangesPartitionTheRowSpace) {
  for (uint64_t rows : {1ull, 7ull, 64ull, 1000ull, 1001ull}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      const ShardRouter router(rows, shards);
      ASSERT_GE(router.NumShards(), 1u);
      ASSERT_LE(router.NumShards(), std::max<uint64_t>(rows, 1));
      uint64_t next = 0;
      for (size_t s = 0; s < router.NumShards(); ++s) {
        EXPECT_EQ(router.Begin(s), next);
        EXPECT_GT(router.End(s), router.Begin(s)) << "empty shard " << s;
        next = router.End(s);
      }
      EXPECT_EQ(next, rows);
      // Balanced to within one row.
      for (size_t s = 1; s < router.NumShards(); ++s) {
        const int64_t d = static_cast<int64_t>(router.ShardRows(s)) -
                          static_cast<int64_t>(router.ShardRows(0));
        EXPECT_LE(std::abs(d), 1);
      }
      for (uint64_t row = 0; row < rows; ++row) {
        const size_t s = router.ShardOf(row);
        EXPECT_GE(row, router.Begin(s));
        EXPECT_LT(row, router.End(s));
      }
    }
  }
}

TEST(ShardRouterTest, RebaseShiftsByShardBase) {
  const ShardRouter router(100, 4);
  std::vector<uint32_t> out = {7};
  const std::vector<uint32_t> local = {0, 3, 24};
  router.Rebase(2, local, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{7, 50, 53, 74}));
}

// ---------------------------------------------------- canonical plan keys

TEST(PlanCacheKeyTest, CommutedAndFlattenedPlansShareAKey) {
  const auto key = [](const QueryPlan& p) { return PlanCacheKey("C", p); };
  // Commutativity.
  EXPECT_EQ(key(QueryPlan::And({QueryPlan::Leaf(1), QueryPlan::Leaf(2)})),
            key(QueryPlan::And({QueryPlan::Leaf(2), QueryPlan::Leaf(1)})));
  // Associativity (flattening).
  EXPECT_EQ(
      key(QueryPlan::And({QueryPlan::And({QueryPlan::Leaf(1), QueryPlan::Leaf(2)}),
                          QueryPlan::Leaf(3)})),
      key(QueryPlan::And({QueryPlan::Leaf(3),
                          QueryPlan::And({QueryPlan::Leaf(2), QueryPlan::Leaf(1)})})));
  // Idempotence (duplicate operands collapse).
  EXPECT_EQ(key(QueryPlan::Or({QueryPlan::Leaf(4), QueryPlan::Leaf(4)})),
            key(QueryPlan::Leaf(4)));
  // Single-child operator nodes collapse to the child.
  EXPECT_EQ(key(QueryPlan::And({QueryPlan::Leaf(9)})), key(QueryPlan::Leaf(9)));

  // Distinct queries keep distinct keys.
  EXPECT_NE(key(QueryPlan::And({QueryPlan::Leaf(1), QueryPlan::Leaf(2)})),
            key(QueryPlan::Or({QueryPlan::Leaf(1), QueryPlan::Leaf(2)})));
  EXPECT_NE(key(QueryPlan::Leaf(1)), key(QueryPlan::Leaf(11)));
  // Nested mixed ops never flatten across the operator boundary.
  EXPECT_NE(
      key(QueryPlan::And({QueryPlan::Or({QueryPlan::Leaf(1), QueryPlan::Leaf(2)}),
                          QueryPlan::Leaf(3)})),
      key(QueryPlan::And(
          {QueryPlan::Leaf(1), QueryPlan::Leaf(2), QueryPlan::Leaf(3)})));
  // The codec name is part of the key.
  EXPECT_NE(PlanCacheKey("WAH", QueryPlan::Leaf(0)),
            PlanCacheKey("EWAH", QueryPlan::Leaf(0)));
}

TEST(PlanCacheKeyTest, CanonicalPlanEvaluatesToTheSameSet) {
  const Codec& codec = *FindCodec("Roaring");
  const uint64_t domain = 1 << 14;
  std::vector<std::vector<uint32_t>> lists;
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (size_t i = 0; i < 4; ++i) {
    lists.push_back(RandomSortedList(500 + 200 * i, domain, 40 + i));
    sets.push_back(codec.Encode(lists.back(), domain));
    ptrs.push_back(sets.back().get());
  }
  const QueryPlan messy = QueryPlan::And(
      {QueryPlan::And({QueryPlan::Leaf(2), QueryPlan::Leaf(1)}),
       QueryPlan::Or({QueryPlan::Leaf(3), QueryPlan::Leaf(3), QueryPlan::Leaf(0)}),
       QueryPlan::Leaf(1)});
  const QueryPlan canon = CanonicalizePlan(messy);
  EXPECT_EQ(EvaluatePlan(codec, messy, ptrs), EvaluatePlan(codec, canon, ptrs));
}

// ----------------------------------------------- service vs. serial path

struct ColumnFixture {
  std::vector<uint32_t> codes;
  uint32_t cardinality = 8;
  std::vector<QueryPlan> plans;
};

ColumnFixture MakeColumn(size_t rows) {
  ColumnFixture f;
  Prng rng(TestSeed(2024));
  f.codes.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    // Skewed value popularity: min of two uniform draws biases toward 0.
    f.codes.push_back(static_cast<uint32_t>(
        std::min(rng.NextBounded(f.cardinality), rng.NextBounded(f.cardinality))));
  }
  // Predicate battery: Eq, IN-list, range, conjunctions of disjunctions,
  // duplicates (idempotence through the cache key), and an all-values union.
  f.plans.push_back(QueryPlan::Leaf(0));
  f.plans.push_back(QueryPlan::Leaf(7));
  f.plans.push_back(QueryPlan::Or(
      {QueryPlan::Leaf(1), QueryPlan::Leaf(3), QueryPlan::Leaf(5)}));
  f.plans.push_back(QueryPlan::Or(
      {QueryPlan::Leaf(0), QueryPlan::Leaf(1), QueryPlan::Leaf(2),
       QueryPlan::Leaf(3), QueryPlan::Leaf(4)}));
  f.plans.push_back(QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
       QueryPlan::Or({QueryPlan::Leaf(2), QueryPlan::Leaf(3)})}));
  f.plans.push_back(QueryPlan::And(
      {QueryPlan::Leaf(2), QueryPlan::Leaf(5)}));  // disjoint: empty result
  f.plans.push_back(QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(6), QueryPlan::Leaf(2)}),
       QueryPlan::Or({QueryPlan::Leaf(2), QueryPlan::Leaf(6)}),
       QueryPlan::Leaf(2)}));
  std::vector<QueryPlan> all;
  for (uint32_t c = 0; c < f.cardinality; ++c) all.push_back(QueryPlan::Leaf(c));
  f.plans.push_back(QueryPlan::Or(std::move(all)));
  return f;
}

class ServiceDeterminismTest : public ::testing::TestWithParam<const Codec*> {
};

TEST_P(ServiceDeterminismTest, ShardedMatchesSerialIncludingCacheHits) {
  const Codec& codec = *GetParam();
  const ColumnFixture f = MakeColumn(6000);

  // Unsharded serial reference: one BitmapIndex over the full column.
  const BitmapIndex full = BitmapIndex::Build(codec, f.codes, f.cardinality);
  std::vector<const CompressedSet*> full_sets;
  for (uint32_t c = 0; c < f.cardinality; ++c) {
    full_sets.push_back(full.SetFor(c));
  }
  std::vector<std::vector<uint32_t>> ref;
  for (const QueryPlan& plan : f.plans) {
    ref.push_back(EvaluatePlan(codec, plan, full_sets));
  }

  ThreadPool pool(3);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(shards);
    const ShardedIndex index =
        ShardedIndex::BuildFromColumn(codec, f.codes, f.cardinality, shards);
    ASSERT_EQ(index.NumShards(), shards);
    ASSERT_EQ(index.NumRows(), f.codes.size());
    EXPECT_GT(index.SizeInBytes(), 0u);

    IndexServiceOptions options;
    options.cache.require_second_touch = false;  // admit on first touch
    IndexService service(&index, &pool, options);
    // Round 0 evaluates and fills the cache; round 1 must be served from it
    // and still be bit-identical.
    for (int round = 0; round < 2; ++round) {
      for (size_t q = 0; q < f.plans.size(); ++q) {
        std::vector<uint32_t> rows;
        ASSERT_TRUE(service.Query(f.plans[q], &rows).ok());
        ASSERT_EQ(rows, ref[q]) << "plan " << q << " round " << round;
      }
    }
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.cache.misses, f.plans.size());
    EXPECT_EQ(stats.cache.hits, f.plans.size());
    EXPECT_EQ(stats.queries, 2 * f.plans.size());

    // Invalidation: every cached result is refused, recomputed identically.
    service.Invalidate(shards - 1);
    for (size_t q = 0; q < f.plans.size(); ++q) {
      std::vector<uint32_t> rows;
      ASSERT_TRUE(service.Query(f.plans[q], &rows).ok());
      ASSERT_EQ(rows, ref[q]) << "plan " << q << " after invalidation";
    }
    EXPECT_EQ(service.Stats().cache.hits, f.plans.size());  // no new hits
    EXPECT_GE(service.Stats().cache.stale_dropped, 1u);
  }
}

std::string CodecName(const ::testing::TestParamInfo<const Codec*>& info) {
  std::string name(info.param->Name());
  for (char& c : name) {
    if (c == '*') c = 'S';
  }
  return name;
}

std::vector<const Codec*> AllPlusExtensions() {
  // Shared roster (core/registry.h): paper methods + extensions, so this
  // suite can never drift from the other differential suites.
  return {AllCodecsWithExtensions().begin(), AllCodecsWithExtensions().end()};
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, ServiceDeterminismTest,
                         ::testing::ValuesIn(AllPlusExtensions()), CodecName);

// ------------------------------------------------------ posting-built shards

TEST(ShardedIndexTest, PostingsBuildMatchesInvertedIndexQueries) {
  const Codec& codec = *FindCodec("SIMDPforDelta*");
  InvertedIndex inverted(codec);
  const std::vector<std::string_view> vocab = {"red",  "green", "blue",
                                               "cyan", "teal"};
  Prng rng(TestSeed(77));
  for (uint32_t doc = 0; doc < 4000; ++doc) {
    std::vector<std::string_view> terms;
    for (std::string_view t : vocab) {
      if (rng.NextBounded(3) == 0) terms.push_back(t);
    }
    if (terms.empty()) terms.push_back(vocab[doc % vocab.size()]);
    inverted.AddDocument(doc, terms);
  }
  inverted.Finalize();
  ASSERT_NE(inverted.PostingFor("red"), nullptr);
  EXPECT_EQ(inverted.PostingFor("absent"), nullptr);
  EXPECT_EQ(inverted.Terms().size(), vocab.size());

  const ShardedIndex index =
      ShardedIndex::BuildFromPostings(codec, inverted, vocab, 4);
  ThreadPool pool(2);
  IndexService service(&index, &pool, IndexServiceOptions{});

  // Conjunctive and disjunctive keyword queries through both paths.
  std::vector<uint32_t> want, got;
  const std::vector<std::string_view> pair = {"red", "blue"};
  ASSERT_TRUE(inverted.Conjunctive(pair, &want));
  ASSERT_TRUE(service
                  .Query(QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(2)}),
                         &got)
                  .ok());
  EXPECT_EQ(got, want);
  inverted.Disjunctive(pair, &want);
  ASSERT_TRUE(service
                  .Query(QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(2)}),
                         &got)
                  .ok());
  EXPECT_EQ(got, want);
}

// ------------------------------------------------------------ BuildRange

TEST(BitmapIndexTest, BuildRangeHoldsLocalIdsOfTheSubRange) {
  const Codec& codec = *FindCodec("WAH");
  std::vector<uint32_t> codes;
  Prng rng(TestSeed(11));
  for (size_t i = 0; i < 1000; ++i) {
    codes.push_back(static_cast<uint32_t>(rng.NextBounded(4)));
  }
  const BitmapIndex shard = BitmapIndex::BuildRange(codec, codes, 4, 250, 600);
  EXPECT_EQ(shard.NumRows(), 350u);
  for (uint32_t c = 0; c < 4; ++c) {
    std::vector<uint32_t> rows;
    shard.Eq(c, &rows);
    std::vector<uint32_t> want;
    for (uint32_t r = 250; r < 600; ++r) {
      if (codes[r] == c) want.push_back(r - 250);
    }
    EXPECT_EQ(rows, want) << "code " << c;
  }
}

// --------------------------------------------------------- error handling

TEST(IndexServiceTest, MalformedPlansAreRejectedWithoutFanOut) {
  const Codec& codec = *FindCodec("Roaring");
  const ColumnFixture f = MakeColumn(500);
  const ShardedIndex index =
      ShardedIndex::BuildFromColumn(codec, f.codes, f.cardinality, 2);
  ThreadPool pool(2);
  IndexService service(&index, &pool, IndexServiceOptions{});

  std::vector<uint32_t> rows = {123};
  Status st = service.Query(QueryPlan::Leaf(f.cardinality), &rows);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rows.empty());
  st = service.Query(QueryPlan::And({}), &rows);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  st = service.Query(
      QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1000)}), &rows);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Stats().rejected, 3u);
  // A malformed plan never pollutes the cache.
  EXPECT_EQ(service.Stats().cache.hits + service.Stats().cache.misses, 0u);
}

// ----------------------------------------------- stats + metrics plumbing

TEST(IndexServiceTest, CacheCountersReachMetricsRegistry) {
  const Codec& codec = *FindCodec("EWAH");
  const ColumnFixture f = MakeColumn(2000);
  const ShardedIndex index =
      ShardedIndex::BuildFromColumn(codec, f.codes, f.cardinality, 4);
  ThreadPool pool(2);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.SetEnabled(true);
  {
    IndexServiceOptions options;
    options.cache.require_second_touch = false;
    IndexService cached(&index, &pool, options);
    std::vector<uint32_t> rows;
    ASSERT_TRUE(cached.Query(f.plans[0], &rows).ok());  // miss
    ASSERT_TRUE(cached.Query(f.plans[0], &rows).ok());  // hit
    EXPECT_EQ(cached.Stats().cache.hits, 1u);
    EXPECT_EQ(cached.Stats().cache.misses, 1u);
    cached.Invalidate(0);
  }
  {
    IndexServiceOptions options;
    options.cache_enabled = false;
    IndexService uncached(&index, &pool, options);
    ASSERT_EQ(uncached.Cache(), nullptr);
    std::vector<uint32_t> rows;
    ASSERT_TRUE(uncached.Query(f.plans[0], &rows).ok());  // bypass
  }
  EXPECT_EQ(reg.CounterValue("service.cache.hit"), 1u);
  EXPECT_EQ(reg.CounterValue("service.cache.miss"), 1u);
  EXPECT_EQ(reg.CounterValue("service.cache.bypass"), 1u);
  EXPECT_EQ(reg.CounterValue("service.cache.invalidation"), 1u);
  EXPECT_EQ(reg.OpLatency(codec.Name(), obs::OpKind::kServiceQuery)->Count(),
            3u);
  // The service_query op kind reaches both exporters.
  EXPECT_NE(reg.ExportJsonl("t").find("service_query"), std::string::npos);
  EXPECT_NE(reg.ExportPrometheus().find("service_query"), std::string::npos);
  reg.SetEnabled(false);
  reg.Reset();
}

}  // namespace
}  // namespace intcomp

// Tests for the persistent container format (src/storage): writer
// determinism, mmap round trips, and the layer's core guarantee — an
// IndexService over a MappedIndex (eager and lazy, at several shard
// counts) returns results bit-identical to the in-memory ShardedIndex and
// to the unsharded serial path, for every codec, including results served
// from the compressed cache and across SwapSnapshot remaps.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/registry.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "service/sharded_index.h"
#include "storage/index_writer.h"
#include "storage/mapped_index.h"
#include "test_util.h"

namespace intcomp {
namespace {

using storage::MappedIndex;
using storage::MappedIndexOptions;
using storage::ValidateMode;
using storage::WriteIndexFile;
using storage::WriteIndexImage;

constexpr uint64_t kRows = 4000;
constexpr size_t kNumLists = 8;

const std::vector<std::vector<uint32_t>>& Lists() {
  static const auto* lists = [] {
    auto* l = new std::vector<std::vector<uint32_t>>;
    for (size_t i = 0; i < kNumLists; ++i) {
      l->push_back(RandomSortedList(150 + 450 * i, kRows, 600 + i));
    }
    return l;
  }();
  return *lists;
}

std::vector<QueryPlan> Plans() {
  std::vector<QueryPlan> plans;
  plans.push_back(QueryPlan::Leaf(0));
  plans.push_back(QueryPlan::Leaf(7));
  plans.push_back(QueryPlan::Or(
      {QueryPlan::Leaf(1), QueryPlan::Leaf(3), QueryPlan::Leaf(5)}));
  plans.push_back(QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
       QueryPlan::Or({QueryPlan::Leaf(6), QueryPlan::Leaf(7)})}));
  plans.push_back(QueryPlan::And({QueryPlan::Leaf(2), QueryPlan::Leaf(4)}));
  return plans;
}

// Unsharded serial reference over the full lists.
std::vector<std::vector<uint32_t>> SerialReference(const Codec& codec) {
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (const auto& list : Lists()) {
    sets.push_back(codec.Encode(list, kRows));
    ptrs.push_back(sets.back().get());
  }
  std::vector<std::vector<uint32_t>> ref;
  for (const QueryPlan& plan : Plans()) {
    ref.push_back(EvaluatePlan(codec, plan, ptrs));
  }
  return ref;
}

std::vector<const Codec*> AllAndExtensions() {
  // Shared roster (core/registry.h): paper methods + extensions, so this
  // suite can never drift from the other differential suites.
  return {AllCodecsWithExtensions().begin(), AllCodecsWithExtensions().end()};
}

std::string ParamName(const ::testing::TestParamInfo<const Codec*>& info) {
  std::string name;
  for (char c : std::string(info.param->Name())) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      name += c;
    } else if (c == '*') {
      name += "Star";
    }
  }
  return name;
}

class StorageEquivalenceTest : public ::testing::TestWithParam<const Codec*> {
};

TEST_P(StorageEquivalenceTest, MappedMatchesInMemoryAndSerialIncludingCache) {
  const Codec& codec = *GetParam();
  const auto plans = Plans();
  const auto ref = SerialReference(codec);

  ThreadPool pool(3);
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(shards);
    const ShardedIndex mem =
        ShardedIndex::Build(codec, Lists(), kRows, shards);

    // The writer is deterministic: same index, byte-identical container.
    std::vector<uint8_t> image, image2;
    ASSERT_TRUE(WriteIndexImage(mem, &image).ok());
    ASSERT_TRUE(WriteIndexImage(mem, &image2).ok());
    ASSERT_EQ(image, image2);

    for (ValidateMode mode : {ValidateMode::kEager, ValidateMode::kLazy}) {
      SCOPED_TRACE(mode == ValidateMode::kEager ? "eager" : "lazy");
      MappedIndexOptions options;
      options.validate = mode;
      auto mapped = MappedIndex::OpenBorrowed(image, options);
      ASSERT_TRUE(mapped.ok()) << mapped.status().message();
      const MappedIndex& idx = **mapped;
      ASSERT_EQ(&idx.codec(), &codec);
      ASSERT_EQ(idx.NumShards(), mem.NumShards());
      ASSERT_EQ(idx.NumLists(), mem.NumLists());
      ASSERT_EQ(idx.NumRows(), mem.NumRows());

      // On-disk payloads are exactly the codec's serialized images.
      for (size_t s = 0; s < shards; ++s) {
        std::vector<uint8_t> expect;
        codec.Serialize(*mem.ShardSets(s)[1], &expect);
        const auto got = idx.PayloadBytes(s, 1);
        ASSERT_EQ(std::vector<uint8_t>(got.begin(), got.end()), expect);
      }

      IndexServiceOptions service_options;
      service_options.cache.require_second_touch = false;
      IndexService mem_service(&mem, &pool, service_options);
      IndexService map_service(&idx, &pool, service_options);
      // Round 0 evaluates and fills the cache; round 1 is served from it
      // and must stay bit-identical.
      for (int round = 0; round < 2; ++round) {
        for (size_t q = 0; q < plans.size(); ++q) {
          SCOPED_TRACE(q);
          std::vector<uint32_t> mem_rows, map_rows;
          ASSERT_TRUE(mem_service.Query(plans[q], &mem_rows).ok());
          ASSERT_TRUE(map_service.Query(plans[q], &map_rows).ok());
          ASSERT_EQ(map_rows, ref[q]) << "round " << round;
          ASSERT_EQ(mem_rows, ref[q]) << "round " << round;
        }
      }
      EXPECT_EQ(map_service.Stats().cache.misses, plans.size());

      if (mode == ValidateMode::kEager) {
        // Eager open materialized everything up front.
        EXPECT_EQ(idx.MaterializedPayloads(), shards * kNumLists);
      } else {
        // Lazy open materialized only the touched lists (all of them here,
        // since the plan battery covers every list — but never more than
        // the file holds, and ValidateAllPayloads is an idempotent warmup).
        EXPECT_LE(idx.MaterializedPayloads(), shards * kNumLists);
        ASSERT_TRUE(idx.ValidateAllPayloads().ok());
        EXPECT_EQ(idx.MaterializedPayloads(), shards * kNumLists);
      }
      if (codec.SupportsViewDeserialize()) {
        EXPECT_EQ(idx.ZeroCopyPayloads(), idx.MaterializedPayloads());
      } else {
        EXPECT_EQ(idx.ZeroCopyPayloads(), 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, StorageEquivalenceTest,
                         ::testing::ValuesIn(AllAndExtensions()), ParamName);

// ------------------------------------------------------- file round trips

TEST(StorageFileTest, WriteOpenQueryRoundTrip) {
  for (const char* name : {"WAH", "Roaring", "List", "VB"}) {
    SCOPED_TRACE(name);
    const Codec& codec = *FindCodec(name);
    const ShardedIndex mem = ShardedIndex::Build(codec, Lists(), kRows, 4);
    const std::string path =
        ::testing::TempDir() + "/storage_roundtrip_" + name + ".bin";
    ASSERT_TRUE(WriteIndexFile(path, mem).ok());

    auto mapped = MappedIndex::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().message();
    EXPECT_GT((*mapped)->SizeInBytes(), 0u);
    EXPECT_LE((*mapped)->SizeInBytes(), (*mapped)->FileBytes());

    ThreadPool pool(2);
    IndexService service(&**mapped, &pool, IndexServiceOptions{});
    const auto ref = SerialReference(codec);
    const auto plans = Plans();
    for (size_t q = 0; q < plans.size(); ++q) {
      std::vector<uint32_t> rows;
      ASSERT_TRUE(service.Query(plans[q], &rows).ok());
      ASSERT_EQ(rows, ref[q]) << "plan " << q;
    }
    std::remove(path.c_str());
  }
}

TEST(StorageFileTest, OpenMissingFileFailsCleanly) {
  auto mapped = MappedIndex::Open(::testing::TempDir() + "/does_not_exist.bin");
  ASSERT_FALSE(mapped.ok());
}

// ------------------------------------------------ snapshot swap + caching

TEST(StorageSwapTest, SwapInvalidatesCachedResults) {
  const Codec& codec = *FindCodec("EWAH");
  const size_t shards = 3;
  const ShardedIndex mem = ShardedIndex::Build(codec, Lists(), kRows, shards);

  // A second index with visibly different data for list 0.
  std::vector<std::vector<uint32_t>> other_lists = Lists();
  other_lists[0] = RandomSortedList(900, kRows, 999);
  const ShardedIndex other =
      ShardedIndex::Build(codec, other_lists, kRows, shards);
  std::vector<uint8_t> image;
  ASSERT_TRUE(WriteIndexImage(other, &image).ok());
  auto mapped = MappedIndex::OpenBorrowed(image);
  ASSERT_TRUE(mapped.ok());

  ThreadPool pool(2);
  IndexServiceOptions options;
  options.cache.require_second_touch = false;
  IndexService service(&mem, &pool, options);

  const QueryPlan plan = QueryPlan::Leaf(0);
  std::vector<uint32_t> rows;
  ASSERT_TRUE(service.Query(plan, &rows).ok());
  ASSERT_EQ(rows, Lists()[0]);
  // Cached now: a second query hits.
  ASSERT_TRUE(service.Query(plan, &rows).ok());
  EXPECT_EQ(service.Stats().cache.hits, 1u);

  // Remap: the generation bump must prevent the stale cached result.
  ASSERT_TRUE(service.SwapSnapshot(&**mapped).ok());
  ASSERT_TRUE(service.Query(plan, &rows).ok());
  ASSERT_EQ(rows, other_lists[0]);

  // Shard-count mismatch is rejected (cache generations are per shard).
  const ShardedIndex narrow = ShardedIndex::Build(codec, Lists(), kRows, 2);
  EXPECT_FALSE(service.SwapSnapshot(&narrow).ok());
  EXPECT_FALSE(service.SwapSnapshot(nullptr).ok());
}

// --------------------------------------------- concurrent lazy first touch

TEST(StorageConcurrencyTest, LazyMaterializationIsThreadSafe) {
  const Codec& codec = *FindCodec("Roaring");
  const ShardedIndex mem = ShardedIndex::Build(codec, Lists(), kRows, 8);
  std::vector<uint8_t> image;
  ASSERT_TRUE(WriteIndexImage(mem, &image).ok());
  MappedIndexOptions options;
  options.validate = ValidateMode::kLazy;
  auto mapped = MappedIndex::OpenBorrowed(image, options);
  ASSERT_TRUE(mapped.ok());

  ThreadPool pool(4);
  IndexService service(&**mapped, &pool, IndexServiceOptions{});
  const auto plans = Plans();
  const auto ref = SerialReference(codec);

  // Several client threads race first-touch materialization of the same
  // lists across the same shards (the TSan job runs this binary).
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < plans.size(); ++q) {
          std::vector<uint32_t> rows;
          if (!service.Query(plans[q], &rows).ok() || rows != ref[q]) {
            failed.store(true);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ((*mapped)->MaterializedPayloads(), 8 * kNumLists);
}

// --------------------------------------------- parallel build determinism

TEST(StorageWriterTest, ParallelBuildMatchesSerialColumnBuild) {
  // BuildFromColumn is the serial reference: BitmapIndex::Build encodes
  // each shard's slice of each value's rows, in order, with codec.Encode on
  // the calling thread. Build over the same rows as lists must write the
  // same container byte for byte, whatever thread claimed which encode.
  // The column mixes a dense value, values confined to the first half
  // (empty slices in later shards) and a value that never occurs.
  constexpr uint32_t kCardinality = 12;
  Prng rng(NoteSeed(1414));
  std::vector<uint32_t> column(kRows);
  for (uint32_t r = 0; r < kRows; ++r) {
    if (r % 2 == 0) continue;  // value 0
    column[r] = static_cast<uint32_t>(r < kRows / 2 ? 1 + rng.NextBounded(4)
                                                    : 5 + rng.NextBounded(6));
  }
  std::vector<std::vector<uint32_t>> lists(kCardinality);
  for (uint32_t r = 0; r < kRows; ++r) lists[column[r]].push_back(r);
  ASSERT_TRUE(lists[kCardinality - 1].empty());

  // One list, one shard: fewer encodes than threads.
  const std::vector<uint32_t> all_rows_column(kRows, 0);
  std::vector<std::vector<uint32_t>> all_rows(1);
  for (uint32_t r = 0; r < kRows; ++r) all_rows[0].push_back(r);

  const auto expect_same_image = [](const ShardedIndex& a,
                                    const ShardedIndex& b) {
    std::vector<uint8_t> image_a, image_b;
    ASSERT_TRUE(WriteIndexImage(a, &image_a).ok());
    ASSERT_TRUE(WriteIndexImage(b, &image_b).ok());
    ASSERT_EQ(image_a, image_b);
  };
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  // Both adaptive codecs ("Planner" and "Hybrid") are PlannerCodecs and
  // count one planner.build.choice.* per encode; Hybrid's pool is
  // {SIMDPforDelta*, Roaring}, so its choices land on those two only.
  const Codec* hybrid = FindCodec("Hybrid");
  const Codec* planner = FindCodec("Planner");
  for (const Codec* codec : AllAndExtensions()) {
    SCOPED_TRACE(codec->Name());
    const bool is_adaptive = codec == hybrid || codec == planner;
    for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
      SCOPED_TRACE(shards);
      reg.Reset();
      reg.SetEnabled(true);
      const ShardedIndex built =
          ShardedIndex::Build(*codec, lists, kRows, shards);
      reg.SetEnabled(false);
      // Every (shard, list) encode ran exactly once.
      uint64_t choices = 0;
      for (const Codec* member : AllCodecs()) {
        const uint64_t n = reg.CounterValue(
            "planner.build.choice." + std::string(member->Name()));
        choices += n;
        if (codec == hybrid && member->Name() != "Roaring" &&
            member->Name() != "SIMDPforDelta*") {
          EXPECT_EQ(n, 0u) << member->Name();
        }
      }
      EXPECT_EQ(choices, is_adaptive ? shards * kCardinality : 0);

      expect_same_image(built, ShardedIndex::BuildFromColumn(
                                   *codec, column, kCardinality, shards));
    }
    expect_same_image(
        ShardedIndex::Build(*codec, all_rows, kRows, 1),
        ShardedIndex::BuildFromColumn(*codec, all_rows_column, 1, 1));
  }
  reg.Reset();
}

// ----------------------------------------------------------- writer misuse

TEST(StorageWriterTest, MisuseReturnsStatusNotCorruptOutput) {
  const Codec& codec = *FindCodec("WAH");
  const ShardedIndex mem = ShardedIndex::Build(codec, Lists(), kRows, 2);
  std::vector<uint8_t> image;
  storage::VectorSink sink(&image);
  storage::IndexWriter writer(&sink);
  EXPECT_FALSE(writer.Finalize().ok());  // nothing written yet
  ASSERT_TRUE(writer.WriteShardedIndex(mem).ok());
  EXPECT_FALSE(writer.WriteShardedIndex(mem).ok());  // write-once
  const uint8_t blob[] = {1, 2, 3};
  // Opaque sections must not shadow v1 ids.
  EXPECT_FALSE(writer.AppendOpaqueSection(storage::kSectionMeta, blob).ok());
  ASSERT_TRUE(
      writer.AppendOpaqueSection(storage::kFirstUnassignedSectionId, blob)
          .ok());
  ASSERT_TRUE(writer.Finalize().ok());
  EXPECT_FALSE(writer.Finalize().ok());  // finalize-once

  // The extension section does not disturb readers.
  auto mapped = MappedIndex::OpenBorrowed(image);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_EQ((*mapped)->NumLists(), kNumLists);
}

}  // namespace
}  // namespace intcomp

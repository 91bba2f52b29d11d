// Tests for the cost-model query planner (src/planner, DESIGN.md §5.12):
// per-list codec selection, the query-time strategy chooser, the per-list
// codec tags persisted by the storage layer, and the representation
// signature the service keys cached results by.

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/ewah.h"
#include "bitmap/roaring.h"
#include "common/crc32.h"
#include "core/query.h"
#include "core/registry.h"
#include "core/scratch.h"
#include "core/set_ops.h"
#include "engine/thread_pool.h"
#include "index/bitmap_index.h"
#include "invlist/simdpfordelta.h"
#include "planner/planner_codec.h"
#include "planner/strategy.h"
#include "service/sharded_index.h"
#include "storage/format.h"
#include "storage/index_writer.h"
#include "storage/mapped_index.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

using planner::CostModel;
using planner::PlannerCodec;
using planner::SetOpStrategy;
using storage::MappedIndex;
using storage::MappedIndexOptions;
using storage::ValidateMode;

const Codec& Planner() { return *FindCodec("Planner"); }

// A workload whose lists span both families: dense / clustered lists want a
// bitmap, sparse uniform lists want a list codec, so the planner's per-list
// choice is genuinely mixed.
std::vector<std::vector<uint32_t>> MixedShapeLists(uint64_t domain,
                                                   uint64_t seed) {
  std::vector<std::vector<uint32_t>> lists;
  lists.push_back(GenerateUniform(domain / 3, domain, seed));       // dense
  lists.push_back(GenerateUniform(200, domain, seed + 1));          // sparse
  lists.push_back(GenerateMarkov(domain / 8, domain, 64.0, seed + 2));
  lists.push_back(
      GenerateZipf(std::min<uint64_t>(2000, domain / 4), domain, 1.0,
                   seed + 3));
  lists.push_back(GenerateUniform(domain / 4, domain, seed + 4));
  return lists;
}

TEST(PlannerCodecTest, RegisteredWithABifamilyPool) {
  const auto& codec = static_cast<const PlannerCodec&>(Planner());
  ASSERT_GE(codec.pool().size(), 2u);
  bool has_bitmap = false, has_list = false;
  for (const Codec* c : codec.pool()) {
    (c->Family() == CodecFamily::kBitmap ? has_bitmap : has_list) = true;
  }
  EXPECT_TRUE(has_bitmap);
  EXPECT_TRUE(has_list);
}

// kTrialEncode keeps the smallest candidate image, so per list the planner
// set costs at most any pool member's set plus the one-byte tag — and
// summed over an index, at most the best single whole-index pool codec
// plus one byte per list.
TEST(PlannerCodecTest, TrialEncodeIsSpaceOptimalOverThePool) {
  const auto& codec = static_cast<const PlannerCodec&>(Planner());
  const uint64_t domain = 1u << 16;
  const uint64_t seed = TestSeed(2301);
  const std::vector<std::vector<uint32_t>> workloads[] = {
      {GenerateUniform(40000, domain, seed)},
      {GenerateUniform(300, domain, seed + 1)},
      {GenerateZipf(5000, domain, 1.0, seed + 2)},
      {GenerateMarkov(20000, domain, 32.0, seed + 3)},
  };
  for (const auto& lists : workloads) {
    for (const auto& list : lists) {
      const auto chosen = codec.Encode(list, domain);
      for (const Codec* candidate : codec.pool()) {
        const auto under = candidate->Encode(list, domain);
        EXPECT_LE(chosen->SizeInBytes(), under->SizeInBytes() + 1)
            << "candidate " << candidate->Name();
      }
    }
  }
}

TEST(PlannerCodecTest, IndexSizeAtMostBestSinglePoolCodec) {
  const auto& codec = static_cast<const PlannerCodec&>(Planner());
  const uint64_t domain = 1u << 15;
  const uint64_t seed = TestSeed(2302);
  struct Workload {
    const char* name;
    std::vector<std::vector<uint32_t>> lists;
  } workloads[] = {
      {"uniform",
       {GenerateUniform(domain / 3, domain, seed),
        GenerateUniform(400, domain, seed + 1),
        GenerateUniform(domain / 8, domain, seed + 2)}},
      {"zipf",
       {GenerateZipf(4000, domain, 1.0, seed + 3),
        GenerateZipf(300, domain, 1.0, seed + 4),
        GenerateZipf(8000, domain, 1.0, seed + 5)}},
      {"markov",
       {GenerateMarkov(domain / 4, domain, 32.0, seed + 6),
        GenerateMarkov(600, domain, 8.0, seed + 7),
        GenerateMarkov(domain / 10, domain, 64.0, seed + 8)}},
  };
  for (const auto& w : workloads) {
    size_t planner_total = 0, num_sets = 0;
    for (const auto& list : w.lists) {
      planner_total += codec.Encode(list, domain)->SizeInBytes();
      ++num_sets;
    }
    size_t best_single = SIZE_MAX;
    for (const Codec* candidate : codec.pool()) {
      size_t total = 0;
      for (const auto& list : w.lists) {
        total += candidate->Encode(list, domain)->SizeInBytes();
      }
      best_single = std::min(best_single, total);
    }
    // One tag byte per list is the planner's only overhead.
    EXPECT_LE(planner_total, best_single + num_sets) << w.name;
  }
}

// The planner index must answer every plan bit-identically to a fixed
// single-codec index over the same lists, both through serial EvaluatePlan
// and through the sharded service.
TEST(PlannerCodecTest, BitIdenticalToSingleCodecEvaluation) {
  const uint64_t domain = 1u << 14;
  const auto lists = MixedShapeLists(domain, TestSeed(2303));

  const std::vector<QueryPlan> plans = {
      QueryPlan::Leaf(1),
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(2)}),
      QueryPlan::Or({QueryPlan::Leaf(1), QueryPlan::Leaf(3),
                     QueryPlan::Leaf(4)}),
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(2),
                      QueryPlan::Leaf(4)}),
      QueryPlan::Or(
          {QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
           QueryPlan::And({QueryPlan::Leaf(2), QueryPlan::Leaf(3)})}),
  };

  const Codec& reference = *FindCodec("Roaring");
  ShardedIndex planner_index =
      ShardedIndex::Build(Planner(), lists, domain, 3);
  ShardedIndex reference_index =
      ShardedIndex::Build(reference, lists, domain, 3);

  ThreadPool pool(4);
  IndexService planner_service(&planner_index, &pool, {});
  IndexService reference_service(&reference_index, &pool, {});

  // Serial single-shard evaluation as the ground truth.
  ShardedIndex planner_flat = ShardedIndex::Build(Planner(), lists, domain, 1);
  ShardedIndex reference_flat =
      ShardedIndex::Build(reference, lists, domain, 1);

  for (const QueryPlan& plan : plans) {
    const std::vector<uint32_t> truth =
        EvaluatePlan(reference, plan, reference_flat.ShardSets(0));
    EXPECT_EQ(EvaluatePlan(Planner(), plan, planner_flat.ShardSets(0)), truth);

    std::vector<uint32_t> via_planner, via_reference;
    ASSERT_TRUE(planner_service.Query(plan, &via_planner).ok());
    ASSERT_TRUE(reference_service.Query(plan, &via_reference).ok());
    EXPECT_EQ(via_planner, truth);
    EXPECT_EQ(via_reference, truth);
  }
}

// --- Size-first selection: EncodedSize must equal the encoded footprint ---

std::vector<uint32_t> Iota(uint32_t first, size_t n) {
  std::vector<uint32_t> v(n);
  std::iota(v.begin(), v.end(), first);
  return v;
}

// Lists aimed at the four closed-form sizers' layout boundaries.
std::vector<std::vector<uint32_t>> EdgeLists() {
  std::vector<std::vector<uint32_t>> lists;
  lists.push_back({});                         // every candidate 0 bytes
  lists.push_back({0});                        // SIMDPforDelta* b == 0
  lists.push_back({12345});
  lists.push_back({0xFFFFFFFFu});              // b == 32, Roaring 0xFFFF
  lists.push_back({1, 0xFFFFFFFFu});           // b == 32 gap
  // Roaring: key 0xFFFF partly filled, a full 65536-value container at
  // that key, and the array/bitmap threshold at 4096 / 4097.
  lists.push_back(Iota(0xFFFFFF00u, 256));
  lists.push_back(Iota(0xFFFF0000u, 65536));
  lists.push_back(Iota(3u << 16, RoaringCodec::kArrayMax));
  lists.push_back(Iota(3u << 16, RoaringCodec::kArrayMax + 1));
  // EWAH: a zero fill and a one fill each longer than kMaxFill groups, a
  // one fill starting mid-group, kMaxLiterals dirty groups in a row, and
  // one past it.
  lists.push_back({5, 32u * (2 * EwahTraits::kMaxFill + 7) + 3});
  lists.push_back(Iota(64, 32 * (size_t{EwahTraits::kMaxFill} + 10)));
  lists.push_back(Iota(17, 32 * 40 + 5));
  for (size_t groups : {size_t{EwahTraits::kMaxLiterals},
                        size_t{EwahTraits::kMaxLiterals} + 3}) {
    std::vector<uint32_t> dirty;
    for (size_t g = 0; g < groups; ++g) {
      dirty.push_back(static_cast<uint32_t>(32 * g + 1 + g % 29));
    }
    lists.push_back(std::move(dirty));
  }
  // PEF: run partitions, bitmap/EF partitions, and a partial last one.
  lists.push_back(Iota(1000, 128 * 5));
  lists.push_back(Iota(7, 128 * 3 + 37));
  {
    std::vector<uint32_t> mixed = Iota(0, 128);
    for (uint32_t k = 0; k < 128; ++k) mixed.push_back(1000 + 3 * k);
    for (uint32_t k = 0; k < 77; ++k) mixed.push_back(100000 + 997 * k);
    lists.push_back(std::move(mixed));
  }
  // SIMDPforDelta: small gaps with a few wide exceptions per block.
  {
    std::vector<uint32_t> outliers;
    uint32_t v = 0;
    for (uint32_t k = 0; k < 1000; ++k) {
      v += (k % 41 == 0) ? 1u << 20 : 1 + k % 5;
      outliers.push_back(v);
    }
    lists.push_back(std::move(outliers));
  }
  return lists;
}

// Seeded uniform / zipf / markov lists over a range of densities.
std::vector<std::vector<uint32_t>> SeededLists(uint64_t domain,
                                               uint64_t seed) {
  std::vector<std::vector<uint32_t>> lists;
  for (uint64_t n : {uint64_t{1}, uint64_t{50}, uint64_t{129},
                     domain / 200, domain / 20, domain / 3, domain / 2}) {
    lists.push_back(GenerateUniform(n, domain, seed++));
  }
  for (uint64_t n : {uint64_t{100}, domain / 50, domain / 8}) {
    lists.push_back(GenerateZipf(n, domain, 1.0, seed++));
  }
  for (double run : {2.0, 32.0, 512.0}) {
    lists.push_back(GenerateMarkov(domain / 6, domain, run, seed++));
    lists.push_back(GenerateMarkov(domain / 60, domain, run, seed++));
  }
  return lists;
}

// Bitset's footprint follows the largest value; the high-key edge lists
// would cost it half a GiB, so it sits those out.
bool Affordable(const Codec& codec, const std::vector<uint32_t>& list) {
  return codec.Name() != "Bitset" || list.empty() || list.back() < (1u << 24);
}

TEST(EncodedSizeTest, EqualsEncodedFootprintForEveryCodec) {
  const uint64_t domain = 1u << 20;
  auto lists = SeededLists(domain, TestSeed(2320));
  for (auto& edge : EdgeLists()) lists.push_back(std::move(edge));
  for (const Codec* codec : AllCodecsWithExtensions()) {
    for (size_t i = 0; i < lists.size(); ++i) {
      const std::vector<uint32_t>& list = lists[i];
      if (!Affordable(*codec, list)) continue;
      const uint64_t list_domain =
          list.empty() ? domain : std::max<uint64_t>(domain, list.back() + 1ull);
      EXPECT_EQ(codec->EncodedSize(list, list_domain),
                codec->Encode(list, list_domain)->SizeInBytes())
          << codec->Name() << " list " << i << " (n=" << list.size() << ")";
    }
  }
}

// Fig. 7's no-skip SIMDPforDelta* charges different skip metadata; the
// closed form must follow SizeInBytes there too.
TEST(EncodedSizeTest, FollowsTheNoSkipFootprint) {
  const SimdPforDeltaStarCodec no_skips(/*use_skips=*/false);
  const uint64_t domain = 1u << 20;
  for (const auto& list : SeededLists(domain, TestSeed(2321))) {
    EXPECT_EQ(no_skips.EncodedSize(list, domain),
              no_skips.Encode(list, domain)->SizeInBytes());
  }
}

// The selection rule as it was first written: encode every candidate, keep
// the smallest image, lowest pool index on ties.
std::vector<uint8_t> ReferenceSelectAndSerialize(
    const PlannerCodec& planner, std::span<const uint32_t> list,
    uint64_t domain) {
  std::unique_ptr<CompressedSet> best;
  uint8_t tag = 0;
  for (size_t i = 0; i < planner.pool().size(); ++i) {
    auto candidate = planner.pool()[i]->Encode(list, domain);
    if (best == nullptr || candidate->SizeInBytes() < best->SizeInBytes()) {
      best = std::move(candidate);
      tag = static_cast<uint8_t>(i);
    }
  }
  std::vector<uint8_t> image{tag};
  planner.pool()[tag]->Serialize(*best, &image);
  return image;
}

TEST(EncodedSizeTest, PlannerChoosesAsEncodeEveryCandidateWould) {
  const auto& planner = static_cast<const PlannerCodec&>(Planner());
  const uint64_t domain = 1u << 20;
  auto lists = SeededLists(domain, TestSeed(2322));
  for (auto& edge : EdgeLists()) lists.push_back(std::move(edge));
  for (size_t i = 0; i < lists.size(); ++i) {
    const uint64_t list_domain =
        lists[i].empty() ? domain
                         : std::max<uint64_t>(domain, lists[i].back() + 1ull);
    std::vector<uint8_t> image;
    planner.Serialize(*planner.Encode(lists[i], list_domain), &image);
    const std::vector<uint8_t> reference =
        ReferenceSelectAndSerialize(planner, lists[i], list_domain);
    ASSERT_FALSE(image.empty());
    EXPECT_EQ(image[0], reference[0]) << "list " << i;
    EXPECT_EQ(image, reference) << "list " << i;
  }
  // The empty list is a four-way tie at 0 bytes: the lowest index wins.
  std::vector<uint8_t> empty_image;
  planner.Serialize(*planner.Encode({}, domain), &empty_image);
  EXPECT_EQ(empty_image[0], 0);
}

TEST(PlannerCodecTest, DeserializeRejectsBadTagAndEmptyImage) {
  const Codec& codec = Planner();
  const auto list = RandomSortedList(500, 1u << 14, TestSeed(2304));
  const auto set = codec.Encode(list, 1u << 14);
  std::vector<uint8_t> image;
  codec.Serialize(*set, &image);

  EXPECT_FALSE(codec.DeserializeChecked({image.data(), 0}, 1u << 14).ok());

  std::vector<uint8_t> bad = image;
  bad[0] = 0xFF;  // pool has < 255 candidates, so the tag is out of range
  EXPECT_FALSE(codec.DeserializeChecked(bad, 1u << 14).ok());

  const auto ok = codec.DeserializeChecked(image, 1u << 14);
  ASSERT_TRUE(ok.ok());
  std::vector<uint32_t> decoded;
  codec.Decode(*ok.value(), &decoded);
  EXPECT_EQ(decoded, list);
}

TEST(PlannerCodecTest, StatsSelectionFollowsDensity) {
  const Codec& roaring = *FindCodec("Roaring");
  const Codec& simdpfd = *FindCodec("SIMDPforDelta*");
  const PlannerCodec stats_planner({&roaring, &simdpfd},
                                   PlannerCodec::Selection::kStats);
  const uint64_t domain = 1u << 16;
  const uint64_t seed = TestSeed(2305);

  const auto dense = GenerateUniform(domain / 2, domain, seed);
  const auto sparse = GenerateUniform(100, domain, seed + 1);
  // Sparse overall but strongly clustered: the §7.1 rule reads density
  // only, so long runs do not pull it to the bitmap side.
  const auto clustered = GenerateMarkov(domain / 20, domain, 512.0, seed + 2);

  const auto family = [&](const std::vector<uint32_t>& list) {
    const auto set = stats_planner.Encode(list, domain);
    const auto& s = static_cast<const PlannerCodec::Set&>(*set);
    // Selection mode never changes what decodes back out.
    std::vector<uint32_t> decoded;
    stats_planner.Decode(*set, &decoded);
    EXPECT_EQ(decoded, list);
    return stats_planner.pool()[s.tag]->Family();
  };
  EXPECT_EQ(family(dense), CodecFamily::kBitmap);
  EXPECT_EQ(family(sparse), CodecFamily::kInvertedList);
  EXPECT_EQ(family(clustered), CodecFamily::kInvertedList);
}

// ------------------------------------------------------------ strategy

TEST(StrategyTest, ParsesAllNames) {
  SetOpStrategy s;
  ASSERT_TRUE(planner::ParseSetOpStrategy("auto", &s));
  EXPECT_EQ(s, SetOpStrategy::kAuto);
  ASSERT_TRUE(planner::ParseSetOpStrategy("compressed", &s));
  EXPECT_EQ(s, SetOpStrategy::kCompressed);
  ASSERT_TRUE(planner::ParseSetOpStrategy("merge", &s));
  EXPECT_EQ(s, SetOpStrategy::kDecodeMerge);
  ASSERT_TRUE(planner::ParseSetOpStrategy("gallop", &s));
  EXPECT_EQ(s, SetOpStrategy::kGallopProbe);
  EXPECT_FALSE(planner::ParseSetOpStrategy("svs", &s));
}

// Every strategy computes the same intersection; the chooser only moves
// cost, never the result — including kCompressed forced onto a cross-codec
// pair, which degrades to a probe.
TEST(StrategyTest, AllStrategiesComputeTheSameIntersection) {
  const uint64_t domain = 1u << 14;
  const uint64_t seed = TestSeed(2306);
  const auto a = RandomSortedList(3000, domain, seed);
  const auto b = RandomSortedList(400, domain, seed + 1);
  const auto expected = RefIntersect(a, b);

  const CostModel& model = CostModel::Default();
  const Codec& roaring = *FindCodec("Roaring");
  const Codec& pef = *FindCodec("PEF");

  struct Pair {
    const Codec* ca;
    const Codec* cb;
  } pairs[] = {{&roaring, &roaring}, {&roaring, &pef}, {&pef, &roaring}};
  for (const Pair& p : pairs) {
    const auto sa = p.ca->Encode(a, domain);
    const auto sb = p.cb->Encode(b, domain);
    const TaggedSet ta{p.ca, sa.get()};
    const TaggedSet tb{p.cb, sb.get()};
    for (SetOpStrategy strategy :
         {SetOpStrategy::kAuto, SetOpStrategy::kCompressed,
          SetOpStrategy::kDecodeMerge, SetOpStrategy::kGallopProbe}) {
      std::vector<uint32_t> out;
      planner::PlannedIntersect(ta, tb, strategy, model, &out);
      EXPECT_EQ(out, expected)
          << p.ca->Name() << " x " << p.cb->Name() << " under "
          << planner::SetOpStrategyName(strategy);
    }
  }
}

TEST(StrategyTest, ChooserPicksApplicableStrategies) {
  const uint64_t domain = 1u << 14;
  const auto a = RandomSortedList(2000, domain, TestSeed(2307));
  const auto b = RandomSortedList(2200, domain, TestSeed(2308));
  const CostModel& model = CostModel::Default();
  const Codec& roaring = *FindCodec("Roaring");
  const Codec& pef = *FindCodec("PEF");
  const auto sa = roaring.Encode(a, domain);
  const auto sb_same = roaring.Encode(b, domain);
  const auto sb_cross = pef.Encode(b, domain);

  // Cross-codec pairs can never pick the shared-codec compressed path.
  EXPECT_NE(planner::ChoosePairStrategy({&roaring, sa.get()},
                                        {&pef, sb_cross.get()}, model),
            SetOpStrategy::kCompressed);
  // And the chooser never returns the sentinel.
  EXPECT_NE(planner::ChoosePairStrategy({&roaring, sa.get()},
                                        {&roaring, sb_same.get()}, model),
            SetOpStrategy::kAuto);
}

TEST(StrategyTest, PlannedIntersectSetsMatchesReference) {
  const uint64_t domain = 1u << 13;
  const uint64_t seed = TestSeed(2309);
  const auto a = RandomSortedList(2500, domain, seed);
  const auto b = RandomSortedList(900, domain, seed + 1);
  const auto c = RandomSortedList(1400, domain, seed + 2);
  const auto expected = RefIntersect(RefIntersect(a, b), c);

  const Codec& roaring = *FindCodec("Roaring");
  const Codec& pef = *FindCodec("PEF");
  const auto sa = roaring.Encode(a, domain);
  const auto sb = pef.Encode(b, domain);
  const auto sc = Planner().Encode(c, domain);
  const std::vector<TaggedSet> sets = {
      {&roaring, sa.get()}, {&pef, sb.get()}, {&Planner(), sc.get()}};

  ScratchArena arena;
  for (SetOpStrategy strategy :
       {SetOpStrategy::kAuto, SetOpStrategy::kDecodeMerge,
        SetOpStrategy::kGallopProbe}) {
    std::vector<uint32_t> out;
    planner::PlannedIntersectSets(sets, strategy, CostModel::Default(),
                                  &arena, &out);
    EXPECT_EQ(out, expected) << planner::SetOpStrategyName(strategy);
  }
}

// ------------------------------------------------- storage + signature

TEST(PlannerStorageTest, RoundtripPreservesTagsAndSignature) {
  const uint64_t domain = 1u << 14;
  const auto lists = MixedShapeLists(domain, TestSeed(2310));
  const ShardedIndex index = ShardedIndex::Build(Planner(), lists, domain, 3);

  // A genuinely mixed index gets a digest-qualified signature.
  const std::string signature(index.CodecSignature());
  ASSERT_NE(signature.find('#'), std::string::npos) << signature;

  std::vector<uint8_t> image;
  ASSERT_TRUE(storage::WriteIndexImage(index, &image).ok());

  for (ValidateMode mode : {ValidateMode::kEager, ValidateMode::kLazy}) {
    MappedIndexOptions options;
    options.validate = mode;
    auto opened = MappedIndex::OpenBorrowed(image, options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    const MappedIndex& mapped = *opened.value();

    // The persisted tags reproduce the in-RAM signature exactly.
    EXPECT_EQ(mapped.CodecSignature(), signature);
    for (size_t s = 0; s < index.NumShards(); ++s) {
      for (size_t l = 0; l < index.NumLists(); ++l) {
        EXPECT_EQ(mapped.ListCodecName(s, l),
                  Planner().SetCodecName(*index.ShardSets(s)[l]));
      }
    }

    // And the mapped index answers queries identically.
    ThreadPool pool(2);
    IndexService from_ram(&index, &pool, {});
    IndexService from_disk(&mapped, &pool, {});
    const QueryPlan plan = QueryPlan::Or(
        {QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(3)}),
         QueryPlan::Leaf(1)});
    std::vector<uint32_t> ram_rows, disk_rows;
    ASSERT_TRUE(from_ram.Query(plan, &ram_rows).ok());
    ASSERT_TRUE(from_disk.Query(plan, &disk_rows).ok());
    EXPECT_EQ(disk_rows, ram_rows);
  }
}

TEST(PlannerStorageTest, FixedCodecContainersCarryNoTagSection) {
  const uint64_t domain = 1u << 12;
  const auto lists = MixedShapeLists(domain, TestSeed(2311));
  const Codec& roaring = *FindCodec("Roaring");
  const ShardedIndex index = ShardedIndex::Build(roaring, lists, domain, 2);
  EXPECT_EQ(index.CodecSignature(), "Roaring");

  std::vector<uint8_t> image;
  ASSERT_TRUE(storage::WriteIndexImage(index, &image).ok());
  auto opened = MappedIndex::OpenBorrowed(image);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value()->CodecSignature(), "Roaring");
  EXPECT_EQ(opened.value()->ListCodecName(0, 0), "Roaring");
}

TEST(PlannerStorageTest, OpaqueSectionMayNotShadowListCodecs) {
  const uint64_t domain = 1u << 10;
  const auto lists = MixedShapeLists(domain, TestSeed(2312));
  const ShardedIndex index =
      ShardedIndex::Build(*FindCodec("Roaring"), lists, domain, 2);
  std::vector<uint8_t> image;
  storage::VectorSink sink(&image);
  storage::IndexWriter writer(&sink);
  ASSERT_TRUE(writer.WriteShardedIndex(index).ok());
  const uint8_t junk[4] = {1, 2, 3, 4};
  EXPECT_FALSE(writer.AppendOpaqueSection(storage::kSectionListCodecs, junk)
                   .ok());
}

// Byte-patching helpers for the malformed-section test.
uint32_t ReadU32At(const std::vector<uint8_t>& b, size_t off) {
  uint32_t v;
  std::memcpy(&v, b.data() + off, 4);
  return v;
}
uint64_t ReadU64At(const std::vector<uint8_t>& b, size_t off) {
  uint64_t v;
  std::memcpy(&v, b.data() + off, 8);
  return v;
}
void WriteU32At(std::vector<uint8_t>* b, size_t off, uint32_t v) {
  std::memcpy(b->data() + off, &v, 4);
}

TEST(PlannerStorageTest, MalformedListCodecsSectionFailsClosed) {
  const uint64_t domain = 1u << 13;
  const auto lists = MixedShapeLists(domain, TestSeed(2313));
  const ShardedIndex index = ShardedIndex::Build(Planner(), lists, domain, 2);
  std::vector<uint8_t> image;
  ASSERT_TRUE(storage::WriteIndexImage(index, &image).ok());

  // Locate the list-codecs section through the directory.
  const uint64_t dir_offset = ReadU64At(image, 24);
  const uint32_t dir_entries = ReadU32At(image, 32);
  size_t section_offset = 0, entry_offset = 0;
  for (uint32_t i = 0; i < dir_entries; ++i) {
    const size_t e = static_cast<size_t>(dir_offset) +
                     i * storage::kDirEntryBytes;
    if (ReadU32At(image, e) == storage::kSectionListCodecs) {
      entry_offset = e;
      section_offset = static_cast<size_t>(ReadU64At(image, e + 8));
    }
  }
  ASSERT_NE(section_offset, 0u) << "planner container should carry tags";

  // Plain corruption inside the section: caught by the section CRC.
  {
    std::vector<uint8_t> bad = image;
    bad[section_offset] ^= 0x01;
    EXPECT_FALSE(MappedIndex::OpenBorrowed(bad).ok());
  }

  // Forged corruption: zero the name count and re-patch every enclosing
  // checksum, so only the section's own structural validation can object.
  {
    std::vector<uint8_t> bad = image;
    WriteU32At(&bad, section_offset, 0);
    const uint64_t section_len = ReadU64At(bad, entry_offset + 16);
    WriteU32At(&bad, entry_offset + 24,
               Crc32Of({bad.data() + section_offset,
                        static_cast<size_t>(section_len)}));
    const uint64_t dir_len =
        static_cast<uint64_t>(dir_entries) * storage::kDirEntryBytes;
    WriteU32At(&bad, 36,
               Crc32Of({bad.data() + dir_offset,
                        static_cast<size_t>(dir_len)}));
    WriteU32At(&bad, storage::kHeaderCrcOffset,
               Crc32Of({bad.data(), storage::kHeaderCrcOffset}));
    const auto opened = MappedIndex::OpenBorrowed(bad);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruptData);
  }
}

// --------------------------------------------------- index-layer census

TEST(FamilyCensusTest, AdaptiveCodecsReportThePerSetSplit) {
  // Column: value 0 covers most rows (dense set), the rest are rare.
  const uint32_t cardinality = 5;
  std::vector<uint32_t> column(20000, 0);
  for (size_t i = 0; i < column.size(); ++i) {
    if (i % 97 == 0) column[i] = 1 + static_cast<uint32_t>(i % 4);
  }

  const BitmapIndex hybrid_index =
      BitmapIndex::Build(*FindCodec("Hybrid"), column, cardinality);
  const auto hybrid_counts = hybrid_index.EffectiveFamilies();
  EXPECT_EQ(hybrid_counts.bitmap + hybrid_counts.inverted_list, cardinality);
  EXPECT_GE(hybrid_counts.bitmap, 1u);         // the dense value-0 set
  EXPECT_GE(hybrid_counts.inverted_list, 1u);  // the rare values

  // Fixed codecs answer with their static family for every set.
  const BitmapIndex roaring_index =
      BitmapIndex::Build(*FindCodec("Roaring"), column, cardinality);
  EXPECT_EQ(roaring_index.EffectiveFamilies().bitmap, cardinality);
  const BitmapIndex vb_index =
      BitmapIndex::Build(*FindCodec("VB"), column, cardinality);
  EXPECT_EQ(vb_index.EffectiveFamilies().inverted_list, cardinality);
}

TEST(CodecSignatureTest, StableAcrossBuildsAndSensitiveToTags) {
  const uint64_t domain = 1u << 13;
  const auto lists = MixedShapeLists(domain, TestSeed(2314));
  const ShardedIndex a = ShardedIndex::Build(Planner(), lists, domain, 2);
  const ShardedIndex b = ShardedIndex::Build(Planner(), lists, domain, 2);
  EXPECT_EQ(a.CodecSignature(), b.CodecSignature());

  // All-sparse lists pick a different tag mix than the mixed workload.
  std::vector<std::vector<uint32_t>> sparse;
  for (int i = 0; i < 5; ++i) {
    sparse.push_back(GenerateUniform(50, domain, TestSeed(2315) + i));
  }
  const ShardedIndex c = ShardedIndex::Build(Planner(), sparse, domain, 2);
  EXPECT_NE(a.CodecSignature(), c.CodecSignature());
}

}  // namespace
}  // namespace intcomp

// Tests for the extension features: the Hybrid codec (paper lesson 1),
// top-k retrieval (App. A.1), set difference, and the k-way union path.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/set_ops.h"
#include "core/topk.h"
#include "planner/planner_codec.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

const Codec& Hybrid() { return *FindCodec("Hybrid"); }

// Hybrid is the two-candidate {SIMDPforDelta*, Roaring} PlannerCodec: the
// set's pool index is 0 on the list side and 1 on the bitmap side.
constexpr uint8_t kListTag = 0;
constexpr uint8_t kBitmapTag = 1;
uint8_t HybridTag(const CompressedSet& set) {
  return static_cast<const planner::PlannerCodec::Set&>(set).tag;
}

TEST(HybridTest, IsRegisteredAsExtension) {
  ASSERT_EQ(ExtensionCodecs().size(), 3u);
  EXPECT_EQ(ExtensionCodecs()[0]->Name(), "Hybrid");
  EXPECT_EQ(ExtensionCodecs()[1]->Name(), "EF");
  EXPECT_EQ(ExtensionCodecs()[2]->Name(), "Planner");
  EXPECT_EQ(FindCodec("Hybrid"), ExtensionCodecs()[0]);
  EXPECT_EQ(FindCodec("EF"), ExtensionCodecs()[1]);
  EXPECT_EQ(FindCodec("Planner"), ExtensionCodecs()[2]);
  // Extensions must not leak into the paper's 24-method list.
  for (const Codec* c : AllCodecs()) {
    EXPECT_NE(c->Name(), "Hybrid");
    EXPECT_NE(c->Name(), "EF");
    EXPECT_NE(c->Name(), "Planner");
  }
  // The shared roster is exactly paper methods + extensions, in order.
  auto roster = AllCodecsWithExtensions();
  ASSERT_EQ(roster.size(), AllCodecs().size() + ExtensionCodecs().size());
  for (size_t i = 0; i < AllCodecs().size(); ++i) {
    EXPECT_EQ(roster[i], AllCodecs()[i]);
  }
  for (size_t i = 0; i < ExtensionCodecs().size(); ++i) {
    EXPECT_EQ(roster[AllCodecs().size() + i], ExtensionCodecs()[i]);
  }
}

TEST(HybridTest, EffectiveFamilyTracksTheChosenSide) {
  // Regression: Family() is the static registry slot (kBitmap), but a
  // list-backed hybrid set used to be misclassified by per-set consumers
  // that trusted it. EffectiveFamily must report the side the set landed
  // on, and SetCodecName the inner codec's name.
  auto dense = RandomSortedList(300000, 1 << 20, 91);   // density ~0.29
  auto sparse = RandomSortedList(1000, 1 << 20, 92);    // density ~0.001
  auto sd = Hybrid().Encode(dense, 1 << 20);
  auto ss = Hybrid().Encode(sparse, 1 << 20);
  ASSERT_EQ(HybridTag(*sd), kBitmapTag);
  ASSERT_EQ(HybridTag(*ss), kListTag);
  EXPECT_EQ(Hybrid().Family(), CodecFamily::kBitmap);
  EXPECT_EQ(Hybrid().EffectiveFamily(*sd), CodecFamily::kBitmap);
  EXPECT_EQ(Hybrid().EffectiveFamily(*ss), CodecFamily::kInvertedList);
  EXPECT_EQ(Hybrid().SetCodecName(*sd), "Roaring");
  EXPECT_EQ(Hybrid().SetCodecName(*ss), "SIMDPforDelta*");
  // Fixed-representation codecs answer with their static identity.
  const Codec& roaring = *FindCodec("Roaring");
  auto r = roaring.Encode(sparse, 1 << 20);
  EXPECT_EQ(roaring.EffectiveFamily(*r), roaring.Family());
  EXPECT_EQ(roaring.SetCodecName(*r), roaring.Name());
}

TEST(EfTest, PartitioningExploitsClustering) {
  // Partition-scale clustering (dense runs separated by large gaps) is
  // exactly what PEF's per-partition containers exploit (§3.9): aligned
  // runs collapse to zero-byte implicit containers, while plain EF must
  // spend ~log2(U/n) low bits on every element.
  std::vector<uint32_t> runs;
  for (uint32_t r = 0; r < 300; ++r) {
    for (uint32_t i = 0; i < 128; ++i) runs.push_back(r * 100000 + i);
  }
  const Codec& ef = *FindCodec("EF");
  const Codec& pef = *FindCodec("PEF");
  auto se = ef.Encode(runs, 1u << 25);
  auto sp = pef.Encode(runs, 1u << 25);
  EXPECT_LT(sp->SizeInBytes() * 4, se->SizeInBytes());
  std::vector<uint32_t> de, dp;
  ef.Decode(*se, &de);
  pef.Decode(*sp, &dp);
  EXPECT_EQ(de, runs);
  EXPECT_EQ(dp, runs);
  // On unclustered markov data, the two are within metadata noise of each
  // other.
  auto clustered = GenerateMarkov(40000, 1 << 22, 8.0, 77);
  auto se2 = ef.Encode(clustered, 1 << 22);
  auto sp2 = pef.Encode(clustered, 1 << 22);
  EXPECT_LT(static_cast<double>(sp2->SizeInBytes()),
            1.25 * static_cast<double>(se2->SizeInBytes()));
}

TEST(HybridTest, PicksBitmapForDenseAndListForSparse) {
  auto dense = RandomSortedList(300000, 1 << 20, 1);    // density ~0.29
  auto sparse = RandomSortedList(1000, 1 << 20, 2);     // density ~0.001
  auto sd = Hybrid().Encode(dense, 1 << 20);
  auto ss = Hybrid().Encode(sparse, 1 << 20);
  EXPECT_EQ(HybridTag(*sd), kBitmapTag);
  EXPECT_EQ(HybridTag(*ss), kListTag);
  // Density alone decides: a sparse list of long runs (density ~0.05,
  // runs of ~512) still goes to the list side.
  constexpr uint64_t kDomain = 1 << 16;
  auto clustered = GenerateMarkov(kDomain / 20, kDomain, 512.0, 5);
  auto sc = Hybrid().Encode(clustered, kDomain);
  EXPECT_EQ(HybridTag(*sc), kListTag);
}

TEST(HybridTest, UnknownDomainTreatsSparseWideListAsList) {
  // Regression: domain == 0 means "unknown", not "tiny". A 10k-element list
  // scattered over nearly the full 2^32 range (density ~2e-6) used to divide
  // by the declared domain of 0, classify as "dense", and inflate into a
  // ~500MB bitmap. It must pick the list family, and the serialized image
  // must carry the list tag in byte 0 so readers agree.
  auto sparse = RandomSortedList(10000, uint64_t{1} << 32, 21);
  auto s = Hybrid().Encode(sparse, /*domain=*/0);
  EXPECT_EQ(HybridTag(*s), kListTag);
  std::vector<uint8_t> image;
  Hybrid().Serialize(*s, &image);
  ASSERT_FALSE(image.empty());
  EXPECT_EQ(image[0], kListTag);  // the tag byte leads the image
  // And the round trip must still behave.
  auto restored = Hybrid().Deserialize(image.data(), image.size());
  ASSERT_NE(restored, nullptr);
  std::vector<uint32_t> out;
  Hybrid().Decode(*restored, &out);
  EXPECT_EQ(out, sparse);

  // A genuinely dense list must still become a bitmap when the caller
  // passes a loose or unknown domain: the value range decides.
  std::vector<uint32_t> dense(200000);
  for (uint32_t i = 0; i < dense.size(); ++i) dense[i] = 2 * i;
  auto d = Hybrid().Encode(dense, /*domain=*/0);
  EXPECT_EQ(HybridTag(*d), kBitmapTag);
}

TEST(HybridTest, MixedFamilyOpsAreCorrect) {
  auto dense = RandomSortedList(300000, 1 << 20, 3);
  auto sparse = RandomSortedList(1000, 1 << 20, 4);
  auto sd = Hybrid().Encode(dense, 1 << 20);
  auto ss = Hybrid().Encode(sparse, 1 << 20);
  ASSERT_NE(HybridTag(*sd), HybridTag(*ss));
  std::vector<uint32_t> out;
  Hybrid().Intersect(*sd, *ss, &out);
  EXPECT_EQ(out, RefIntersect(dense, sparse));
  Hybrid().Intersect(*ss, *sd, &out);
  EXPECT_EQ(out, RefIntersect(dense, sparse));
  Hybrid().Union(*sd, *ss, &out);
  EXPECT_EQ(out, RefUnion(dense, sparse));
}

TEST(HybridTest, SpaceTracksTheBetterFamily) {
  // On a dense list, Hybrid should be close to Roaring; on a sparse one,
  // close to SIMDPforDelta* — never dramatically worse than both.
  const Codec& roaring = *FindCodec("Roaring");
  const Codec& simdpfd = *FindCodec("SIMDPforDelta*");
  for (uint64_t seed : {7u, 8u}) {
    auto dense = RandomSortedList(300000, 1 << 20, seed);
    auto h = Hybrid().Encode(dense, 1 << 20);
    auto r = roaring.Encode(dense, 1 << 20);
    EXPECT_LE(h->SizeInBytes(), r->SizeInBytes() + 64);
    auto sparse = RandomSortedList(2000, 1 << 24, seed + 10);
    auto hs = Hybrid().Encode(sparse, 1 << 24);
    auto ls = simdpfd.Encode(sparse, 1 << 24);
    EXPECT_LE(hs->SizeInBytes(), ls->SizeInBytes() + 64);
  }
}

TEST(TopKTest, ReturnsHighestScoresInOrder) {
  const Codec& codec = *FindCodec("Roaring");
  auto core = RandomSortedList(500, 1 << 16, 20);
  std::vector<std::vector<uint32_t>> lists;
  for (uint64_t s = 0; s < 3; ++s) {
    auto l = RandomSortedList(5000, 1 << 16, 21 + s);
    l.insert(l.end(), core.begin(), core.end());
    std::sort(l.begin(), l.end());
    l.erase(std::unique(l.begin(), l.end()), l.end());
    lists.push_back(std::move(l));
  }
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (const auto& l : lists) {
    sets.push_back(codec.Encode(l, 1 << 16));
    ptrs.push_back(sets.back().get());
  }
  auto scorer = [](uint32_t doc) { return std::fmod(doc * 0.61803398875, 1.0); };

  auto top = TopK(codec, ptrs, 10, scorer);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }

  // Cross-check against brute force over the reference intersection.
  auto candidates = RefIntersect(RefIntersect(lists[0], lists[1]), lists[2]);
  std::vector<ScoredDoc> brute;
  for (uint32_t d : candidates) brute.push_back({d, scorer(d)});
  std::sort(brute.begin(), brute.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].doc, brute[i].doc) << i;
    EXPECT_DOUBLE_EQ(top[i].score, brute[i].score) << i;
  }
}

TEST(TopKTest, KLargerThanCandidates) {
  const Codec& codec = *FindCodec("VB");
  std::vector<uint32_t> a = {1, 5, 9};
  std::vector<uint32_t> b = {5, 9, 12};
  auto sa = codec.Encode(a, 100);
  auto sb = codec.Encode(b, 100);
  const CompressedSet* ptrs[] = {sa.get(), sb.get()};
  auto top = TopK(codec, ptrs, 10, [](uint32_t d) { return double(d); });
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].doc, 9u);
  EXPECT_EQ(top[1].doc, 5u);
}

TEST(TopKTest, ZeroK) {
  const Codec& codec = *FindCodec("VB");
  std::vector<uint32_t> a = {1, 2, 3};
  auto sa = codec.Encode(a, 100);
  const CompressedSet* ptrs[] = {sa.get()};
  EXPECT_TRUE(TopK(codec, ptrs, 0, [](uint32_t) { return 1.0; }).empty());
}

class DifferenceTest : public ::testing::TestWithParam<const Codec*> {};

TEST_P(DifferenceTest, MatchesReference) {
  const Codec& codec = *GetParam();
  auto a = RandomSortedList(5000, 1 << 18, 30);
  auto b = RandomSortedList(20000, 1 << 18, 31);
  auto sa = codec.Encode(a, 1 << 18);
  auto sb = codec.Encode(b, 1 << 18);
  std::vector<uint32_t> expected;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(expected));
  std::vector<uint32_t> got;
  DifferenceSets(codec, *sa, *sb, &got);
  EXPECT_EQ(got, expected);
  // a \ a is empty; a \ empty is a.
  DifferenceSets(codec, *sa, *sa, &got);
  EXPECT_TRUE(got.empty());
  auto empty = codec.Encode({}, 1 << 18);
  DifferenceSets(codec, *sa, *empty, &got);
  EXPECT_EQ(got, a);
}

INSTANTIATE_TEST_SUITE_P(SampleCodecs, DifferenceTest,
                         ::testing::Values(FindCodec("Roaring"),
                                           FindCodec("WAH"),
                                           FindCodec("SIMDBP128*"),
                                           FindCodec("PEF"),
                                           FindCodec("Hybrid")),
                         [](const auto& info) {
                           std::string n(info.param->Name());
                           for (char& c : n) {
                             if (c == '*') c = 'S';
                           }
                           return n;
                         });

TEST(DifferenceListsTest, Basics) {
  std::vector<uint32_t> a = {1, 2, 3, 7, 9};
  std::vector<uint32_t> b = {2, 7, 10};
  std::vector<uint32_t> out;
  DifferenceLists(a, b, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 3, 9}));
  DifferenceLists(b, a, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{10}));
  DifferenceLists({}, a, &out);
  EXPECT_TRUE(out.empty());
}

TEST(KWayUnionTest, ManyListsMatchReference) {
  const Codec& codec = *FindCodec("SIMDBP128*");
  std::vector<std::vector<uint32_t>> lists;
  std::vector<uint32_t> expected;
  for (uint64_t s = 0; s < 9; ++s) {
    lists.push_back(RandomSortedList(500 + 700 * s, 1 << 18, 40 + s));
    expected = RefUnion(expected, lists.back());
  }
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (const auto& l : lists) {
    sets.push_back(codec.Encode(l, 1 << 18));
    ptrs.push_back(sets.back().get());
  }
  std::vector<uint32_t> got;
  UnionSets(codec, ptrs, &got);
  EXPECT_EQ(got, expected);
}

TEST(KWayUnionTest, DuplicateHeavyInputs) {
  const Codec& codec = *FindCodec("VB");
  auto shared = RandomSortedList(2000, 1 << 16, 50);
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (int i = 0; i < 5; ++i) {
    sets.push_back(codec.Encode(shared, 1 << 16));
    ptrs.push_back(sets.back().get());
  }
  std::vector<uint32_t> got;
  UnionSets(codec, ptrs, &got);
  EXPECT_EQ(got, shared);
}

}  // namespace
}  // namespace intcomp

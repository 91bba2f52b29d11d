// Edge-case and stress tests that target specific machinery: deep query
// plans, cursor reuse patterns, Roaring's fully-dense chunks, structural
// validation of Deserialize, and the Hybrid decision boundary.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/roaring.h"
#include "core/query.h"
#include "core/registry.h"
#include "invlist/blocked_list.h"
#include "invlist/groupvb.h"
#include "invlist/vb.h"
#include "planner/planner_codec.h"
#include "test_util.h"

namespace intcomp {
namespace {

TEST(QueryPlanTest, DeepNesting) {
  // ((A u B) n (C u D)) u (E n F) — evaluated against reference algebra,
  // for one bitmap and one list codec.
  std::vector<std::vector<uint32_t>> lists;
  for (uint64_t s = 0; s < 6; ++s) {
    lists.push_back(RandomSortedList(2000 + 531 * s, 1 << 16, 70 + s));
  }
  auto expected = RefUnion(
      RefIntersect(RefUnion(lists[0], lists[1]), RefUnion(lists[2], lists[3])),
      RefIntersect(lists[4], lists[5]));
  auto plan = QueryPlan::Or(
      {QueryPlan::And(
           {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
            QueryPlan::Or({QueryPlan::Leaf(2), QueryPlan::Leaf(3)})}),
       QueryPlan::And({QueryPlan::Leaf(4), QueryPlan::Leaf(5)})});
  for (const char* name : {"Roaring", "SIMDBP128*", "WAH", "Hybrid"}) {
    const Codec& codec = *FindCodec(name);
    std::vector<std::unique_ptr<CompressedSet>> sets;
    std::vector<const CompressedSet*> ptrs;
    for (const auto& l : lists) {
      sets.push_back(codec.Encode(l, 1 << 16));
      ptrs.push_back(sets.back().get());
    }
    EXPECT_EQ(EvaluatePlan(codec, plan, ptrs), expected) << name;
  }
}

TEST(QueryPlanTest, SingleLeafUnderEachOperator) {
  const Codec& codec = *FindCodec("VB");
  auto list = RandomSortedList(500, 1 << 14, 80);
  auto set = codec.Encode(list, 1 << 14);
  const CompressedSet* ptr = set.get();
  EXPECT_EQ(EvaluatePlan(codec, QueryPlan::Leaf(0), {&ptr, 1}), list);
  EXPECT_EQ(EvaluatePlan(codec, QueryPlan::And({QueryPlan::Leaf(0)}),
                         {&ptr, 1}),
            list);
  EXPECT_EQ(EvaluatePlan(codec, QueryPlan::Or({QueryPlan::Leaf(0)}),
                         {&ptr, 1}),
            list);
}

TEST(BlockedCursorTest, RepeatedAndDenseTargets) {
  auto values = RandomSortedList(10000, 1 << 18, 81);
  VbCodec codec;
  auto set = codec.Encode(values, 1 << 18);
  const auto& s = static_cast<const BlockedSet<VbTraits>&>(*set);
  BlockedCursor<VbTraits> cursor(s);
  uint32_t v;
  // Same target repeatedly must keep returning the same answer.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cursor.NextGEQ(values[5000], &v));
    EXPECT_EQ(v, values[5000]);
  }
  // Every single value in ascending order (dense probing).
  BlockedCursor<VbTraits> c2(s);
  for (uint32_t x : values) {
    ASSERT_TRUE(c2.NextGEQ(x, &v));
    EXPECT_EQ(v, x);
  }
}

TEST(RoaringDenseTest, FullChunk) {
  // A completely full 2^16 chunk plus neighbors.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 65536; ++i) values.push_back(65536 + i);
  values.push_back(5);
  values.push_back(3 * 65536 + 9);
  std::sort(values.begin(), values.end());
  RoaringCodec codec;
  auto set = codec.Encode(values, uint64_t{1} << 32);
  std::vector<uint32_t> decoded;
  codec.Decode(*set, &decoded);
  EXPECT_EQ(decoded, values);
  // Intersect the full chunk with a sparse probe inside it.
  std::vector<uint32_t> probe = {65536 + 17, 2 * 65536 - 1, 3 * 65536 + 9};
  std::vector<uint32_t> out;
  codec.IntersectWithList(*set, probe, &out);
  EXPECT_EQ(out, probe);
}

TEST(DeserializeValidationTest, RejectsStructuralGarbage) {
  const auto list = RandomSortedList(1000, 1 << 20, 90);
  for (const Codec* codec : AllCodecs()) {
    SCOPED_TRACE(std::string(codec->Name()));
    auto set = codec->Encode(list, 1 << 20);
    std::vector<uint8_t> image;
    codec->Serialize(*set, &image);
    // Empty buffer.
    EXPECT_EQ(codec->Deserialize(image.data(), 0), nullptr);
    // Cut in the middle of the header.
    EXPECT_EQ(codec->Deserialize(image.data(), 3), nullptr);
    // Length field claiming more data than present: truncate payload.
    if (image.size() > 16) {
      EXPECT_EQ(codec->Deserialize(image.data(), image.size() / 2), nullptr);
    }
  }
  // Hybrid's leading family byte is 0 (list) or 1 (bitmap); any other value
  // is corruption, not "bitmap" — accepting it would re-serialize a
  // different byte than was read.
  const Codec* hybrid = FindCodec("Hybrid");
  ASSERT_NE(hybrid, nullptr);
  for (const uint32_t universe : {1u << 20, 2000u}) {
    auto set = hybrid->Encode(RandomSortedList(1000, universe, 91), universe);
    std::vector<uint8_t> image;
    hybrid->Serialize(*set, &image);
    ASSERT_EQ(image[0], universe == 2000u ? 1 : 0);  // bitmap : list
    ASSERT_NE(hybrid->Deserialize(image.data(), image.size()), nullptr);
    for (const uint8_t tag : {uint8_t{2}, uint8_t{0x80}, uint8_t{0xff}}) {
      SCOPED_TRACE(static_cast<int>(tag));
      image[0] = tag;
      EXPECT_EQ(hybrid->Deserialize(image.data(), image.size()), nullptr);
      auto checked = hybrid->DeserializeChecked(image, universe);
      ASSERT_FALSE(checked.ok());
      EXPECT_EQ(checked.status().code(), StatusCode::kCorruptData);
    }
  }
}

TEST(DeserializeCheckedTest, EveryPrefixOfEveryCodecIsContained) {
  // Registry-wide truncation sweep: serialize one list per codec (and
  // extension), then present EVERY proper prefix of the image to
  // DeserializeChecked. Each prefix must either be rejected with a non-OK
  // Status or produce a set whose decode is a well-formed sorted list
  // inside the domain — and must never crash (the ASan/UBSan CI jobs give
  // that teeth). A modest domain keeps the Bitset image, and therefore the
  // quadratic sweep, small.
  constexpr uint64_t kDomain = 1 << 14;
  const auto list = RandomSortedList(1000, kDomain, 97);
  const auto codecs = AllCodecsWithExtensions();
  for (const Codec* codec : codecs) {
    SCOPED_TRACE(std::string(codec->Name()));
    auto set = codec->Encode(list, kDomain);
    std::vector<uint8_t> image;
    codec->Serialize(*set, &image);

    // The untruncated image must be accepted and decode exactly.
    auto whole = codec->DeserializeChecked(image, kDomain);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    std::vector<uint32_t> decoded;
    codec->Decode(**whole, &decoded);
    ASSERT_EQ(decoded, list);

    for (size_t n = 0; n < image.size(); ++n) {
      auto r = codec->DeserializeChecked(
          std::span<const uint8_t>(image.data(), n), kDomain);
      if (!r.ok()) continue;
      codec->Decode(**r, &decoded);
      ASSERT_EQ(decoded.size(), (*r)->Cardinality()) << "prefix " << n;
      for (size_t i = 0; i < decoded.size(); ++i) {
        ASSERT_LT(decoded[i], kDomain) << "prefix " << n;
        if (i > 0) {
          ASSERT_LT(decoded[i - 1], decoded[i]) << "prefix " << n;
        }
      }
    }
  }
}

TEST(HybridBoundaryTest, DensityThresholdIsInclusive) {
  // Hybrid sends a list at least 1/5 dense to Roaring (tag 1) and anything
  // sparser to SIMDPforDelta* (tag 0). 2000 values ending at domain - 1
  // sit exactly on 0.2; one value fewer over the same range is below it.
  const Codec* hybrid = FindCodec("Hybrid");
  ASSERT_NE(hybrid, nullptr);
  constexpr uint64_t kDomain = 10000;
  std::vector<uint32_t> at;
  for (uint32_t v = 4; v < kDomain; v += 5) at.push_back(v);
  ASSERT_EQ(at.size(), 2000u);
  const std::vector<uint32_t> below(at.begin() + 1, at.end());
  const auto tag = [&](const std::vector<uint32_t>& values) {
    const auto set = hybrid->Encode(values, kDomain);
    std::vector<uint32_t> decoded;
    hybrid->Decode(*set, &decoded);
    EXPECT_EQ(decoded, values);
    return static_cast<const planner::PlannerCodec::Set&>(*set).tag;
  };
  EXPECT_EQ(tag(at), 1);
  EXPECT_EQ(tag(below), 0);
}

TEST(GroupVbTailTest, BlockBoundaryTails) {
  // Lists whose sizes hit every (block, group-of-4) remainder combination.
  GroupVbCodec codec;
  for (size_t n : {127u, 128u, 129u, 255u, 256u, 257u, 130u, 131u}) {
    auto values = RandomSortedList(n, 1 << 26, 200 + n);
    auto set = codec.Encode(values, 1 << 26);
    std::vector<uint32_t> decoded;
    codec.Decode(*set, &decoded);
    EXPECT_EQ(decoded, values) << n;
  }
}

TEST(EncodeDomainTest, LooseAndTightDomains) {
  // The domain hint must not change correctness, only (possibly) layout.
  auto values = RandomSortedList(3000, 1 << 16, 93);
  for (const Codec* codec : AllCodecs()) {
    auto tight = codec->Encode(values, 1 << 16);
    auto loose = codec->Encode(values, uint64_t{1} << 32);
    std::vector<uint32_t> d1, d2;
    codec->Decode(*tight, &d1);
    codec->Decode(*loose, &d2);
    EXPECT_EQ(d1, values) << codec->Name();
    EXPECT_EQ(d2, values) << codec->Name();
  }
}

}  // namespace
}  // namespace intcomp

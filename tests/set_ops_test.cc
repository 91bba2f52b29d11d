// Tests for the SvS multi-list drivers and the query-plan evaluator, run
// against every codec in the registry.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd_intersect.h"
#include "core/query.h"
#include "core/registry.h"
#include "core/set_ops.h"
#include "obs/op_counters.h"
#include "planner/planner_codec.h"
#include "planner/strategy.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

class SetOpsTest : public ::testing::TestWithParam<const Codec*> {
 protected:
  const Codec& codec() const { return *GetParam(); }

  std::vector<std::unique_ptr<CompressedSet>> EncodeAll(
      const std::vector<std::vector<uint32_t>>& lists) const {
    std::vector<std::unique_ptr<CompressedSet>> sets;
    for (const auto& l : lists) sets.push_back(codec().Encode(l, 1 << 22));
    return sets;
  }

  static std::vector<const CompressedSet*> Ptrs(
      const std::vector<std::unique_ptr<CompressedSet>>& sets) {
    std::vector<const CompressedSet*> p;
    for (const auto& s : sets) p.push_back(s.get());
    return p;
  }
};

TEST_P(SetOpsTest, ThreeWayIntersection) {
  std::vector<std::vector<uint32_t>> lists = {
      RandomSortedList(500, 1 << 20, 1),
      RandomSortedList(20000, 1 << 20, 2),
      RandomSortedList(100000, 1 << 20, 3),
  };
  auto expected = RefIntersect(RefIntersect(lists[0], lists[1]), lists[2]);
  auto sets = EncodeAll(lists);
  std::vector<uint32_t> got;
  IntersectSets(codec(), Ptrs(sets), &got);
  EXPECT_EQ(got, expected);

  // One SvS driver behind four entry points: on seeded uniform and zipf
  // lists, IntersectSets, IntersectTaggedSets with one tag,
  // PlannedIntersectSets over the Planner's per-list codecs and an all-leaf
  // AND plan all equal the oracle. A nested AND(OR(l0, l1, l2), l3) whose
  // leaf is under 1/8 of the union then takes the driver's decode-and-gallop
  // branch.
  constexpr uint64_t kDomain = 1 << 20;
  const Codec& planner_codec = *FindCodec("Planner");
  ScratchArena arena;
  for (const bool zipf : {false, true}) {
    SCOPED_TRACE(zipf ? "zipf" : "uniform");
    auto gen = [&](size_t n, uint64_t seed) {
      return zipf ? GenerateZipf(n, kDomain, kPaperZipfSkew, seed)
                  : GenerateUniform(n, kDomain, seed);
    };
    const std::vector<std::vector<uint32_t>> in = {
        gen(4000, 101), gen(30000, 102), gen(60000, 103), gen(2000, 104)};
    std::vector<uint32_t> oracle = in[0];
    for (size_t i = 1; i < in.size(); ++i) oracle = RefIntersect(oracle, in[i]);
    auto encoded = EncodeAll(in);
    const auto ptrs = Ptrs(encoded);

    IntersectSets(codec(), ptrs, &arena, &got);
    EXPECT_EQ(got, oracle);
    std::vector<TaggedSet> tagged;
    for (const CompressedSet* p : ptrs) tagged.push_back({&codec(), p});
    IntersectTaggedSets(tagged, &arena, &got);
    EXPECT_EQ(got, oracle);
    std::vector<std::unique_ptr<CompressedSet>> planned_sets;
    std::vector<TaggedSet> planned;
    for (const auto& l : in) {
      planned_sets.push_back(planner_codec.Encode(l, kDomain));
      const auto& ps =
          static_cast<const planner::PlannerCodec::Set&>(*planned_sets.back());
      planned.push_back({ps.codec, ps.inner.get()});
    }
    planner::PlannedIntersectSets(planned, planner::SetOpStrategy::kAuto,
                                  planner::CostModel::Default(), &arena, &got);
    EXPECT_EQ(got, oracle);
    std::vector<QueryPlan> leaves;
    for (size_t i = 0; i < in.size(); ++i) leaves.push_back(QueryPlan::Leaf(i));
    EvaluatePlan(codec(), QueryPlan::And(leaves), ptrs, &arena, &got);
    EXPECT_EQ(got, oracle);

    const auto wide = RefUnion(RefUnion(in[0], in[1]), in[2]);
    ASSERT_LT(in[3].size() * kMergeIntersectRatio, wide.size());
    const auto nested = QueryPlan::And(
        {QueryPlan::Or(
             {QueryPlan::Leaf(0), QueryPlan::Leaf(1), QueryPlan::Leaf(2)}),
         QueryPlan::Leaf(3)});
    const obs::OpCounters before = obs::ThreadOpCounters();
    EvaluatePlan(codec(), nested, ptrs, &arena, &got);
    const obs::OpCounters delta = obs::ThreadOpCounters() - before;
    EXPECT_EQ(got, RefIntersect(wide, in[3]));
    // Three lists through the OR's k-way union, one leaf under the AND.
    EXPECT_EQ(delta.lists_touched, 4u);
    // The union decodes all three; the gallop decodes the leaf (a probe
    // through the leaf's own skip structure would not count its bytes).
    size_t all_bytes = 0;
    for (const CompressedSet* p : ptrs) all_bytes += p->SizeInBytes();
    EXPECT_EQ(delta.bytes_decoded, all_bytes);
  }
}

TEST_P(SetOpsTest, FiveWayIntersectionWithSharedCore) {
  // Plant a common subset so the result is non-empty.
  auto core = RandomSortedList(50, 1 << 20, 9);
  std::vector<std::vector<uint32_t>> lists;
  for (uint64_t s = 0; s < 5; ++s) {
    auto l = RandomSortedList(3000 << s, 1 << 20, 10 + s);
    l.insert(l.end(), core.begin(), core.end());
    std::sort(l.begin(), l.end());
    l.erase(std::unique(l.begin(), l.end()), l.end());
    lists.push_back(std::move(l));
  }
  std::vector<uint32_t> expected = lists[0];
  for (size_t i = 1; i < lists.size(); ++i) {
    expected = RefIntersect(expected, lists[i]);
  }
  ASSERT_GE(expected.size(), core.size());
  auto sets = EncodeAll(lists);
  std::vector<uint32_t> got;
  IntersectSets(codec(), Ptrs(sets), &got);
  EXPECT_EQ(got, expected);
}

TEST_P(SetOpsTest, KWayUnion) {
  std::vector<std::vector<uint32_t>> lists = {
      RandomSortedList(100, 1 << 20, 21),
      RandomSortedList(5000, 1 << 20, 22),
      RandomSortedList(30000, 1 << 20, 23),
      RandomSortedList(7, 1 << 20, 24),
  };
  std::vector<uint32_t> expected;
  for (const auto& l : lists) expected = RefUnion(expected, l);
  auto sets = EncodeAll(lists);
  std::vector<uint32_t> got;
  UnionSets(codec(), Ptrs(sets), &got);
  EXPECT_EQ(got, expected);
}

TEST_P(SetOpsTest, SingleListOpsDecode) {
  auto list = RandomSortedList(1000, 1 << 20, 31);
  auto set = codec().Encode(list, 1 << 22);
  const CompressedSet* ptr = set.get();
  std::vector<uint32_t> got;
  IntersectSets(codec(), std::span(&ptr, 1), &got);
  EXPECT_EQ(got, list);
  UnionSets(codec(), std::span(&ptr, 1), &got);
  EXPECT_EQ(got, list);
}

TEST_P(SetOpsTest, EmptyIntersectionShortCircuits) {
  std::vector<std::vector<uint32_t>> lists = {
      {1, 3, 5},
      {2, 4, 6},
      RandomSortedList(1000, 1 << 20, 41),
  };
  auto sets = EncodeAll(lists);
  std::vector<uint32_t> got = {99};
  IntersectSets(codec(), Ptrs(sets), &got);
  EXPECT_TRUE(got.empty());
}

TEST_P(SetOpsTest, SingleListPlanEvaluates) {
  // k=1 regression: a one-child AND / OR (and a bare leaf) must all reduce
  // to a plain decode, for every codec.
  auto list = RandomSortedList(2000, 1 << 20, 33);
  auto set = codec().Encode(list, 1 << 22);
  const CompressedSet* ptr = set.get();
  EXPECT_EQ(EvaluatePlan(codec(), QueryPlan::Leaf(0), std::span(&ptr, 1)),
            list);
  EXPECT_EQ(EvaluatePlan(codec(), QueryPlan::And({QueryPlan::Leaf(0)}),
                         std::span(&ptr, 1)),
            list);
  EXPECT_EQ(EvaluatePlan(codec(), QueryPlan::Or({QueryPlan::Leaf(0)}),
                         std::span(&ptr, 1)),
            list);
}

TEST_P(SetOpsTest, EmptySetInputs) {
  // Empty-CompressedSet regression: an empty operand must behave as the
  // empty set through every driver, and an empty encoding must cost zero
  // bytes (the blocked list codecs used to charge their trailing slack
  // word) and survive a serialize round-trip.
  auto empty = codec().Encode(std::span<const uint32_t>(), 1 << 22);
  EXPECT_EQ(empty->Cardinality(), 0u);
  EXPECT_EQ(empty->SizeInBytes(), 0u);

  std::vector<uint8_t> image;
  codec().Serialize(*empty, &image);
  auto restored = codec().Deserialize(image.data(), image.size());
  ASSERT_NE(restored, nullptr);
  std::vector<uint32_t> got = {99};
  codec().Decode(*restored, &got);
  EXPECT_TRUE(got.empty());

  auto list = RandomSortedList(1000, 1 << 20, 34);
  auto set = codec().Encode(list, 1 << 22);
  const CompressedSet* both[] = {set.get(), empty.get()};
  IntersectSets(codec(), both, &got);
  EXPECT_TRUE(got.empty());
  UnionSets(codec(), both, &got);
  EXPECT_EQ(got, list);
  const CompressedSet* only_empty[] = {empty.get()};
  IntersectSets(codec(), only_empty, &got);
  EXPECT_TRUE(got.empty());

  auto plan = QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(1)});
  EXPECT_TRUE(EvaluatePlan(codec(), plan, both).empty());
  auto or_plan = QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)});
  EXPECT_EQ(EvaluatePlan(codec(), or_plan, both), list);
}

TEST_P(SetOpsTest, ArenaReuseMatchesThrowawayArena) {
  // The arena-taking overloads must be pure in (codec, plan, sets): running
  // many different queries through ONE arena gives the same answers as a
  // fresh arena per call, and the buffer count plateaus (reuse, not growth).
  std::vector<std::vector<uint32_t>> lists;
  for (uint64_t s = 0; s < 4; ++s) {
    lists.push_back(RandomSortedList(5000, 1 << 18, 70 + s));
  }
  auto sets = EncodeAll(lists);
  auto ptrs = Ptrs(sets);
  auto plan = QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
       QueryPlan::Or({QueryPlan::Leaf(2), QueryPlan::Leaf(3)})});
  ScratchArena arena;
  std::vector<uint32_t> got;
  size_t high_water = 0;
  for (int round = 0; round < 5; ++round) {
    EvaluatePlan(codec(), plan, ptrs, &arena, &got);
    EXPECT_EQ(got, EvaluatePlan(codec(), plan, ptrs));
    IntersectSets(codec(), ptrs, &arena, &got);
    std::vector<uint32_t> fresh;
    IntersectSets(codec(), ptrs, &fresh);
    EXPECT_EQ(got, fresh);
    UnionSets(codec(), ptrs, &arena, &got);
    UnionSets(codec(), ptrs, &fresh);
    EXPECT_EQ(got, fresh);
    if (round == 0) {
      high_water = arena.BuffersAllocated();
    } else {
      EXPECT_EQ(arena.BuffersAllocated(), high_water)
          << "arena grew after warm-up round";
    }
  }
  EXPECT_EQ(arena.BuffersFree(), arena.BuffersAllocated())
      << "a lease leaked out of query evaluation";
}

TEST_P(SetOpsTest, Ssb34StylePlan) {
  // (L0 u L1) n (L2 u L3) n L4 — the paper's Q3.4 shape.
  std::vector<std::vector<uint32_t>> lists;
  for (uint64_t s = 0; s < 4; ++s) {
    lists.push_back(RandomSortedList(4000, 1 << 18, 50 + s));
  }
  lists.push_back(RandomSortedList(3000, 1 << 18, 54));
  auto expected = RefIntersect(
      RefIntersect(RefUnion(lists[0], lists[1]), RefUnion(lists[2], lists[3])),
      lists[4]);
  auto plan = QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
       QueryPlan::Or({QueryPlan::Leaf(2), QueryPlan::Leaf(3)}),
       QueryPlan::Leaf(4)});
  auto sets = EncodeAll(lists);
  auto got = EvaluatePlan(codec(), plan, Ptrs(sets));
  EXPECT_EQ(got, expected);
}

TEST_P(SetOpsTest, Ssb41StylePlan) {
  // L0 n L1 n (L2 u L3) — the paper's Q4.1 shape.
  std::vector<std::vector<uint32_t>> lists;
  for (uint64_t s = 0; s < 4; ++s) {
    lists.push_back(RandomSortedList(30000, 1 << 18, 60 + s));
  }
  auto expected = RefIntersect(RefIntersect(lists[0], lists[1]),
                               RefUnion(lists[2], lists[3]));
  auto plan = QueryPlan::And(
      {QueryPlan::Leaf(0), QueryPlan::Leaf(1),
       QueryPlan::Or({QueryPlan::Leaf(2), QueryPlan::Leaf(3)})});
  auto sets = EncodeAll(lists);
  auto got = EvaluatePlan(codec(), plan, Ptrs(sets));
  EXPECT_EQ(got, expected);
}

std::string CodecName(const ::testing::TestParamInfo<const Codec*>& info) {
  std::string name(info.param->Name());
  for (char& c : name) {
    if (c == '*') c = 'S';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, SetOpsTest,
                         ::testing::ValuesIn(AllCodecs().begin(),
                                             AllCodecs().end()),
                         CodecName);

}  // namespace
}  // namespace intcomp

#include "core/registry.h"

#include <array>
#include <vector>

#include "planner/planner_codec.h"

#include "bitmap/bbc.h"
#include "bitmap/bitset.h"
#include "bitmap/concise.h"
#include "bitmap/ewah.h"
#include "bitmap/plwah.h"
#include "bitmap/roaring.h"
#include "bitmap/sbh.h"
#include "bitmap/valwah.h"
#include "bitmap/wah.h"
#include "invlist/groupvb.h"
#include "invlist/newpfordelta.h"
#include "invlist/optpfordelta.h"
#include "invlist/pef.h"
#include "invlist/pfordelta.h"
#include "invlist/plain_list.h"
#include "invlist/simdbp128.h"
#include "invlist/simdpfordelta.h"
#include "invlist/simple16.h"
#include "invlist/simple8b.h"
#include "invlist/simple9.h"
#include "invlist/vb.h"

namespace intcomp {
namespace {

// Shared singleton instances; codecs are stateless and never destroyed
// (trivial-destruction rule for static storage).
struct Instances {
  BitsetCodec bitset;
  BbcCodec bbc;
  WahCodec wah;
  EwahCodec ewah;
  PlwahCodec plwah;
  ConciseCodec concise;
  ValwahCodec valwah;
  SbhCodec sbh;
  RoaringCodec roaring;
  PlainListCodec list;
  VbCodec vb;
  Simple9Codec simple9;
  PforDeltaCodec pfordelta;
  NewPforDeltaCodec newpfordelta;
  OptPforDeltaCodec optpfordelta;
  Simple16Codec simple16;
  GroupVbCodec groupvb;
  Simple8bCodec simple8b;
  PefCodec pef;
  SimdPforDeltaCodec simdpfordelta;
  SimdBp128Codec simdbp128;
  PforDeltaStarCodec pfordelta_star;
  SimdPforDeltaStarCodec simdpfordelta_star;
  SimdBp128StarCodec simdbp128_star;
  // Extensions: lesson-1 adaptive codec over the two recommended methods
  // (the §7.1 density rule; pool order list, bitmap makes the tag byte 0 for
  // a list and 1 for a bitmap), plain (non-partitioned) Elias-Fano [35],
  // PEF's baseline, and the N-way per-list codec optimizer. The planner's
  // default pool spans both families: the best container bitmap (Roaring),
  // an RLE bitmap for clustered lists (EWAH), the recommended list codec
  // (SIMDPforDelta*), and Elias-Fano partitions (PEF) for sparse irregular
  // lists.
  planner::PlannerCodec hybrid{
      std::vector<const Codec*>{&simdpfordelta_star, &roaring},
      planner::PlannerCodec::Selection::kStats, "Hybrid"};
  PefCodec ef{/*partition_size=*/0, "EF"};
  planner::PlannerCodec planner{
      std::vector<const Codec*>{&roaring, &ewah, &simdpfordelta_star, &pef}};
};

const Instances& GetInstances() {
  static const Instances* instances = new Instances();
  return *instances;
}

// Paper legend order (see e.g. Fig. 3 / Table 1).
const std::array<const Codec*, 24>& All() {
  static const auto* all = [] {
    const Instances& c = GetInstances();
    return new std::array<const Codec*, 24>{
        &c.bitset,       &c.bbc,           &c.wah,
        &c.ewah,         &c.plwah,         &c.concise,
        &c.valwah,       &c.sbh,           &c.roaring,
        &c.list,         &c.vb,            &c.simple9,
        &c.pfordelta,    &c.newpfordelta,  &c.optpfordelta,
        &c.simple16,     &c.groupvb,       &c.simple8b,
        &c.pef,          &c.simdpfordelta, &c.simdbp128,
        &c.pfordelta_star, &c.simdpfordelta_star, &c.simdbp128_star,
    };
  }();
  return *all;
}

}  // namespace

std::span<const Codec* const> AllCodecs() { return All(); }

std::span<const Codec* const> BitmapCodecs() {
  return std::span<const Codec* const>(All().data(), 9);
}

std::span<const Codec* const> InvertedListCodecs() {
  return std::span<const Codec* const>(All().data() + 9, 15);
}

std::span<const Codec* const> ExtensionCodecs() {
  static const auto* extensions = new std::array<const Codec*, 3>{
      &GetInstances().hybrid,
      &GetInstances().ef,
      &GetInstances().planner,
  };
  return *extensions;
}

std::span<const Codec* const> AllCodecsWithExtensions() {
  static const auto* roster = [] {
    auto* v = new std::vector<const Codec*>();
    for (const Codec* c : AllCodecs()) v->push_back(c);
    for (const Codec* c : ExtensionCodecs()) v->push_back(c);
    return v;
  }();
  return *roster;
}

const Codec* FindCodec(std::string_view name) {
  for (const Codec* codec : All()) {
    if (codec->Name() == name) return codec;
  }
  for (const Codec* codec : ExtensionCodecs()) {
    if (codec->Name() == name) return codec;
  }
  return nullptr;
}

}  // namespace intcomp

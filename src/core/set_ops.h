// Multi-list set operations over compressed sets.
//
// Intersection follows SvS (paper §4.3, [14]): sort the lists by size,
// intersect the two smallest (the codec switches between merge-based and
// skip-based internally), then probe each remaining compressed list with the
// running uncompressed result. Union of two sets uses the codec's own
// compressed Union; more than two are decoded and merged in one k-way heap
// pass (App. B.2). Every conjunctive entry point — the single-codec and
// mixed-codec drivers here, the planner's PlannedIntersectSets and the plan
// evaluator's AND node — runs the one SvsIntersect loop below; both union
// drivers share one heap merge.

#ifndef INTCOMP_CORE_SET_OPS_H_
#define INTCOMP_CORE_SET_OPS_H_

#include <functional>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/codec.h"
#include "core/scratch.h"

namespace intcomp {

// A compressed set paired with the codec that encodes it — the operand unit
// of mixed-codec set operations, where every list may use a different
// representation (the planner's per-list codec choice). Single-codec
// operations tag every set with the same codec.
struct TaggedSet {
  const Codec* codec = nullptr;
  const CompressedSet* set = nullptr;
};

// One pairwise intersection step: out = a AND b.
using IntersectPairFn = std::function<void(
    const TaggedSet& a, const TaggedSet& b, std::vector<uint32_t>* out)>;

// The SvS driver. Sorts `sets` in place by cardinality. When `seeded`,
// *out already holds a materialized running result and every set is probed
// into it; otherwise k == 0 clears `out`, k == 1 decodes, and k >= 2 runs
// `pair` on the two smallest sets. Each remaining set is then probed with
// the running result until it empties. The probe side follows Lemire et
// al.'s ratio rule (kMergeIntersectRatio): a set far smaller than the
// running result — possible only after a seeded start, e.g. a wide union
// ANDed with a selective leaf — is decoded and galloped into the result;
// any other set keeps its compressed form and is probed through its own
// skip/bucket structure (Codec::IntersectWithList). `token` (may be null)
// is polled before every probe; a tripped token's status is returned with
// `out` holding a partial result. Intermediate lists come from `arena`.
Status SvsIntersect(std::span<TaggedSet> sets, bool seeded,
                    const IntersectPairFn& pair,
                    const CancellationToken* token, ScratchArena* arena,
                    std::vector<uint32_t>* out);

// out = sets[0] AND ... AND sets[k-1]. k >= 1 (k == 1 decodes; k == 0
// clears `out`). Intermediate lists come from `arena`, so a caller that
// keeps one arena across queries pays no per-query allocation for them.
void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   ScratchArena* arena, std::vector<uint32_t>* out);

// out = sets[0] OR ... OR sets[k-1]. k >= 1 (k == 0 clears `out`). For
// k > 2 the decoded lists are merged with a k-way heap rather than repeated
// pairwise passes. Decode buffers come from `arena`.
void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               ScratchArena* arena, std::vector<uint32_t>* out);

// Convenience forms with a throwaway arena per call.
void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   std::vector<uint32_t>* out);
void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               std::vector<uint32_t>* out);

// out = a AND NOT b, as an uncompressed sorted list: DifferenceTagged with
// both operands tagged with `codec`.
void DifferenceSets(const Codec& codec, const CompressedSet& a,
                    const CompressedSet& b, std::vector<uint32_t>* out);

// ------------------------------------------------------------ mixed codec
//
// All operations below are correct for any codec pairing; same-codec pairs
// use the codec's own compressed operation (bitmap word-AND, skip probing),
// cross-codec pairs fall back to decode-smaller-probe-larger (the larger
// side keeps its skip/bucket/bulk-block probing) or a SIMD merge of two
// decoded lists, per ChooseIntersectStrategy.

// out = a AND b across the codec boundary.
void IntersectTagged(const TaggedSet& a, const TaggedSet& b,
                     std::vector<uint32_t>* out);

// out = a OR b across the codec boundary.
void UnionTagged(const TaggedSet& a, const TaggedSet& b,
                 std::vector<uint32_t>* out);

// SvsIntersect over k mixed-codec sets with IntersectTagged as the pair
// step. k == 1 decodes, k == 0 clears.
void IntersectTaggedSets(std::span<const TaggedSet> sets, ScratchArena* arena,
                         std::vector<uint32_t>* out);

// k-way heap union over the decoded lists, each decoded by its own codec.
void UnionTaggedSets(std::span<const TaggedSet> sets, ScratchArena* arena,
                     std::vector<uint32_t>* out);

// out = a AND NOT b across the codec boundary: decodes `a` and subtracts
// the matches found by probing `b` through its skip/bucket structure.
void DifferenceTagged(const TaggedSet& a, const TaggedSet& b,
                      std::vector<uint32_t>* out);

// Merge-difference of two uncompressed sorted lists (out = a \ b).
void DifferenceLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     std::vector<uint32_t>* out);

}  // namespace intcomp

#endif  // INTCOMP_CORE_SET_OPS_H_

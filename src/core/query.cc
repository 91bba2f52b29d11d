#include "core/query.h"

#include <algorithm>

#include "core/set_ops.h"
#include "obs/explain.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace intcomp {
namespace {

inline void CountDecodedSet(const CompressedSet& set) {
  obs::ThreadOpCounters().bytes_decoded += set.SizeInBytes();
}

Status CheckLeaf(size_t leaf, std::span<const CompressedSet* const> sets) {
  if (leaf >= sets.size())
    return Status::InvalidArgument("plan leaf index out of range");
  if (sets[leaf] == nullptr)
    return Status::InvalidArgument("plan references missing input set");
  return Status::Ok();
}

// Emits one explain node for a leaf that an AND/OR parent consumes in place
// (inlined leaves never recurse, so without this they would be invisible and
// the explain tree would not cover the whole plan).
inline void ExplainInlineLeaf(const Codec& codec, size_t leaf,
                              const CompressedSet& set) {
  obs::ExplainScope scope("plan.leaf");
  if (scope.active()) {
    scope.AddUint("leaf", leaf);
    scope.AddUint("card", set.Cardinality());
    scope.AddStr("codec", codec.SetCodecName(set));
  }
}

// Writes the plan's result into *out (cleared first), validating the plan's
// shape and polling `token` (may be null) at every node entry and before
// every SvS probe. Temporaries are leased from `arena`; `out` itself is
// caller storage so results can outlive the evaluation.
Status Evaluate(const Codec& codec, const QueryPlan& plan,
                std::span<const CompressedSet* const> sets,
                const CancellationToken* token, ScratchArena& arena,
                std::vector<uint32_t>* out) {
  if (token != nullptr) {
    Status st = token->Check();
    if (!st.ok()) return st;
  }
  out->clear();
  if (plan.op == QueryPlan::Op::kLeaf) {
    Status st = CheckLeaf(plan.leaf, sets);
    if (!st.ok()) return st;
    const CompressedSet& set = *sets[plan.leaf];
    TRACE_SPAN("decode");
    obs::ExplainScope scope("plan.leaf");
    if (scope.active()) {
      scope.AddUint("leaf", plan.leaf);
      scope.AddUint("card", set.Cardinality());
      scope.AddStr("codec", codec.SetCodecName(set));
    }
    ++obs::ThreadOpCounters().lists_touched;
    CountDecodedSet(set);
    codec.Decode(set, out);
    return Status::Ok();
  }
  const bool is_and = plan.op == QueryPlan::Op::kAnd;
  if (plan.children.empty()) {
    return Status::InvalidArgument(is_and ? "AND node with no children"
                                          : "OR node with no children");
  }
  obs::ExplainScope scope(is_and ? "plan.and" : "plan.or");
  scope.AddUint("children", plan.children.size());
  // Leaves stay compressed for SvS / the compressed union; every other
  // child is materialized into an arena lease.
  std::vector<TaggedSet> leaves;
  std::vector<ScratchArena::Lease> materialized;
  for (const QueryPlan& child : plan.children) {
    if (child.op == QueryPlan::Op::kLeaf) {
      Status st = CheckLeaf(child.leaf, sets);
      if (!st.ok()) return st;
      ExplainInlineLeaf(codec, child.leaf, *sets[child.leaf]);
      leaves.push_back({&codec, sets[child.leaf]});
    } else {
      ScratchArena::Lease sub = arena.Acquire();
      Status st = Evaluate(codec, child, sets, token, arena, sub.get());
      if (!st.ok()) return st;
      materialized.push_back(std::move(sub));
    }
  }
  if (is_and) {
    obs::ThreadOpCounters().lists_touched += leaves.size();
    // Merge-intersect the materialized results (smallest first), then let
    // SvS probe the compressed leaves into that running result.
    std::sort(materialized.begin(), materialized.end(),
              [](const auto& a, const auto& b) { return a->size() < b->size(); });
    if (!materialized.empty()) {
      ScratchArena::Lease next = arena.Acquire();
      out->swap(*materialized[0]);
      for (size_t i = 1; i < materialized.size(); ++i) {
        IntersectLists(*out, *materialized[i], next.get());
        out->swap(*next);
      }
    } else if (leaves.size() == 1) {
      CountDecodedSet(*leaves[0].set);  // SvsIntersect decodes a lone leaf
    }
    Status st = SvsIntersect(
        leaves, /*seeded=*/!materialized.empty(),
        [](const TaggedSet& a, const TaggedSet& b, std::vector<uint32_t>* o) {
          a.codec->Intersect(*a.set, *b.set, o);
        },
        token, &arena, out);
    if (!st.ok()) return st;
  } else {
    if (!leaves.empty()) {
      std::vector<const CompressedSet*> compressed;
      compressed.reserve(leaves.size());
      for (const TaggedSet& l : leaves) compressed.push_back(l.set);
      UnionSets(codec, compressed, &arena, out);
    }
    ScratchArena::Lease merged = arena.Acquire();
    for (const auto& m : materialized) {
      UnionLists(*out, *m, merged.get());
      out->swap(*merged);
    }
  }
  scope.AddUint("rows", out->size());
  return Status::Ok();
}

}  // namespace

void EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                  std::span<const CompressedSet* const> sets,
                  ScratchArena* arena, std::vector<uint32_t>* out) {
  if (!Evaluate(codec, plan, sets, nullptr, *arena, out).ok()) out->clear();
}

std::vector<uint32_t> EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                                   std::span<const CompressedSet* const> sets) {
  ScratchArena arena;
  std::vector<uint32_t> out;
  EvaluatePlan(codec, plan, sets, &arena, &out);
  return out;
}

Status EvaluatePlanChecked(const Codec& codec, const QueryPlan& plan,
                           std::span<const CompressedSet* const> sets,
                           const CancellationToken* token, ScratchArena* arena,
                           std::vector<uint32_t>* out) {
  Status st = Evaluate(codec, plan, sets, token, *arena, out);
  if (!st.ok()) out->clear();
  return st;
}

}  // namespace intcomp

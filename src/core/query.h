// Query plans combining intersection and union, e.g. SSB Q3.4's
// (L1 OR L2) AND (L3 OR L4) AND L5 (paper §6.1).

#ifndef INTCOMP_CORE_QUERY_H_
#define INTCOMP_CORE_QUERY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/codec.h"
#include "core/scratch.h"

namespace intcomp {

// Expression tree over a query's input lists (referenced by index).
struct QueryPlan {
  enum class Op { kLeaf, kAnd, kOr };

  Op op = Op::kLeaf;
  size_t leaf = 0;                  // input index (op == kLeaf)
  std::vector<QueryPlan> children;  // op == kAnd / kOr

  static QueryPlan Leaf(size_t index) {
    QueryPlan p;
    p.op = Op::kLeaf;
    p.leaf = index;
    return p;
  }
  static QueryPlan And(std::vector<QueryPlan> children) {
    QueryPlan p;
    p.op = Op::kAnd;
    p.children = std::move(children);
    return p;
  }
  static QueryPlan Or(std::vector<QueryPlan> children) {
    QueryPlan p;
    p.op = Op::kOr;
    p.children = std::move(children);
    return p;
  }
};

// Evaluates `plan` over the compressed inputs into `out`. AND nodes run SvS
// (core/set_ops.h SvsIntersect) over leaf children, keeping them compressed,
// and probe them into already-materialized sub-results; OR nodes union
// leaves on the compressed form first, then merge in materialized
// sub-results. All intermediate lists are leased from `arena`; only `out`'s
// own growth allocates, so a caller that keeps one arena across a query
// stream (e.g. the batch engine's per-worker arenas) pays no per-query
// temporary allocation. The result is a pure function of (codec, plan,
// sets) — the arena never changes what is computed. The plan is validated
// as in EvaluatePlanChecked: an invalid plan yields an empty `out`.
void EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                  std::span<const CompressedSet* const> sets,
                  ScratchArena* arena, std::vector<uint32_t>* out);

// Convenience form with a throwaway arena per call.
std::vector<uint32_t> EvaluatePlan(const Codec& codec, const QueryPlan& plan,
                                   std::span<const CompressedSet* const> sets);

// EvaluatePlan with a status and a cancellation token; both entry points
// run the same evaluator, so a successful result is identical. Returns
//   kInvalidArgument   — leaf index out of range, null input set, or an
//                        AND/OR node with no children;
//   kCancelled /
//   kDeadlineExceeded  — `token` tripped (polled at every plan-node entry
//                        and before every SvS probe, so latency is bounded
//                        by one decode/intersect).
// On any non-OK status `out` is cleared. `token` may be null (no
// cancellation). This is the entry point for plans or sets that crossed a
// trust boundary.
Status EvaluatePlanChecked(const Codec& codec, const QueryPlan& plan,
                           std::span<const CompressedSet* const> sets,
                           const CancellationToken* token, ScratchArena* arena,
                           std::vector<uint32_t>* out);

}  // namespace intcomp

#endif  // INTCOMP_CORE_QUERY_H_

// Query-time strategy chooser for mixed-codec set operations
// (DESIGN.md §5.12).
//
// For each pairwise intersection step the chooser picks one of three
// execution strategies from the operands' sizes and a cost model calibrated
// against the measured SIMD kernel costs (common/simd_intersect.h,
// MeasureKernelCosts — the Lemire et al. merge/gallop figures for this
// host):
//
//   kCompressed  — the codec's own compressed operation; only available
//                  when both operands share a codec. For bitmap-backed
//                  sets this is the compressed-word AND, whose cost scales
//                  with the compressed byte size, not the cardinality.
//   kDecodeMerge — decode both sides and run the SIMD merge kernel; wins
//                  for similar-size list-backed pairs.
//   kGallopProbe — decode the smaller side and probe the larger through
//                  its own skip/bucket structure (SvS step, bulk block
//                  probes where the codec supports them); wins for skewed
//                  pairs.
//
// kAuto evaluates the model and takes the cheapest; the bench's fixed
// strategies (planner_sweep --strategy=...) ablate the choice. Every
// decision is counted under planner.strategy.* when metrics are enabled.

#ifndef INTCOMP_PLANNER_STRATEGY_H_
#define INTCOMP_PLANNER_STRATEGY_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/simd_intersect.h"
#include "core/scratch.h"
#include "core/set_ops.h"

namespace intcomp::planner {

enum class SetOpStrategy : uint8_t {
  kAuto = 0,
  kCompressed,
  kDecodeMerge,
  kGallopProbe,
};

// Parses "auto" / "compressed" / "merge" / "gallop"; false on anything else.
bool ParseSetOpStrategy(std::string_view text, SetOpStrategy* strategy);
std::string_view SetOpStrategyName(SetOpStrategy strategy);

// Calibrated per-unit costs. Kernel figures come from MeasureKernelCosts;
// the decode and compressed-word figures are representative constants (the
// spread across codecs is within the model's tolerance — the chooser only
// needs the relative order of three coarse alternatives).
struct CostModel {
  KernelCostProfile kernel;
  double decode_ns_per_elem = 1.5;       // typical codec Decode throughput
  double compressed_ns_per_byte = 0.25;  // compressed-word scan (AND / skip)
  double probe_ns_per_elem = 2.0;        // codec skip/bucket probe (bulk)

  // Process-wide default, calibrated once on first use.
  static const CostModel& Default();
};

// Model cost in nanoseconds of intersecting `a` and `b` under `strategy`
// (never kAuto).
double IntersectCostNs(const TaggedSet& a, const TaggedSet& b,
                       SetOpStrategy strategy, const CostModel& model);

// The cheapest applicable strategy for intersecting `a` and `b`
// (kCompressed is only applicable when the operands share a codec).
SetOpStrategy ChoosePairStrategy(const TaggedSet& a, const TaggedSet& b,
                                 const CostModel& model);

// Executes one pairwise intersection under `strategy` (kAuto chooses per
// the model first). Bumps the planner.strategy.* decision counter.
void PlannedIntersect(const TaggedSet& a, const TaggedSet& b,
                      SetOpStrategy strategy, const CostModel& model,
                      std::vector<uint32_t>* out);

// SvsIntersect over k mixed-codec sets with PlannedIntersect (a per-step
// strategy choice) as the pair step; the rest are probed through each
// set's own codec. Timed under OpKind::kPlannerQuery.
void PlannedIntersectSets(std::span<const TaggedSet> sets,
                          SetOpStrategy strategy, const CostModel& model,
                          ScratchArena* arena, std::vector<uint32_t>* out);

}  // namespace intcomp::planner

#endif  // INTCOMP_PLANNER_STRATEGY_H_

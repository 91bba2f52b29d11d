// SIMD set-operation kernels over uncompressed sorted uint32 lists, plus the
// adaptive planner policy that picks between them.
//
// Three kernel families, each with a scalar twin selected by the process-wide
// KernelMode (and at compile time when the build lacks SSE/AVX2):
//
//   - merge intersection: shuffle-based 4x4 block comparison (Schlegel et al.;
//     Lemire, Boytsov, Kurz, "SIMD Compression and the Intersection of Sorted
//     Integers"). Best when the two lists have similar sizes.
//   - galloping intersection: exponential search over the larger list per
//     probe, finished with one 8-wide SIMD equality test instead of the last
//     levels of the binary search. Best for heavily skewed pairs.
//   - union merge: Inoue-style bitonic 4+4 merge network with shuffle-table
//     deduplication on output.
//
// The planner threshold below replaces the hard-coded "footnote 8" ratios
// that used to be duplicated in core/hybrid.cc and invlist/blocked_list.h:
// every caller now routes through ChooseIntersectStrategy so the policy can
// be changed (or ablated) in exactly one place.
//
// All kernels are deterministic and mode-independent in their output: for any
// input, scalar / SIMD / auto produce bit-identical results (pinned by the
// kernel differential fuzzer).

#ifndef INTCOMP_COMMON_SIMD_INTERSECT_H_
#define INTCOMP_COMMON_SIMD_INTERSECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace intcomp {

// ---------------------------------------------------------------- mode

// Process-wide kernel selection, settable by benches (--kernel=...) and
// tests. kAuto uses SIMD when compiled in, scalar otherwise.
enum class KernelMode : uint8_t { kScalar = 0, kSimd = 1, kAuto = 2 };

void SetKernelMode(KernelMode mode);
KernelMode GetKernelMode();

// True when this binary carries the SIMD kernels (compiled with SSE4.1+).
bool SimdKernelsAvailable();

// Parses "scalar" / "simd" / "auto"; returns false on anything else.
bool ParseKernelMode(std::string_view text, KernelMode* mode);
std::string_view KernelModeName(KernelMode mode);

// Resolves the current mode to "use the SIMD kernels?" (kSimd forces them
// even when only the scalar twins exist, which then silently degrades to
// scalar — useful for portability testing).
inline bool UseSimdKernels(KernelMode mode) {
  return mode == KernelMode::kSimd ||
         (mode == KernelMode::kAuto && SimdKernelsAvailable());
}

// ---------------------------------------------------------------- policy

// Similar-size threshold below which intersection merges instead of
// galloping / skip-probing (paper footnote 8). Single source of truth for
// the SvS driver, the mixed-codec ops (core/set_ops.h), and the blocked-list
// codecs.
inline constexpr size_t kMergeIntersectRatio = 8;

// Probe-slice : block-size ratio above which a bulk block probe merges the
// slice with the decoded block instead of binary-searching per probe.
inline constexpr size_t kBlockMergeRatio = 16;

enum class IntersectStrategy : uint8_t { kMerge, kGallop };

// Adaptive strategy for intersecting lists of the given cardinalities.
inline IntersectStrategy ChooseIntersectStrategy(size_t smaller,
                                                 size_t larger) {
  return larger < kMergeIntersectRatio * std::max<size_t>(1, smaller)
             ? IntersectStrategy::kMerge
             : IntersectStrategy::kGallop;
}

// ------------------------------------------------------------- counters

// Per-thread tallies of which kernel actually executed; the batch engine
// samples deltas around each query to attribute kernels per query.
struct KernelCounters {
  uint64_t scalar_merge = 0;   // scalar merge intersections
  uint64_t simd_merge = 0;     // shuffle-based merge intersections
  uint64_t scalar_gallop = 0;  // scalar galloping intersections
  uint64_t simd_gallop = 0;    // SIMD-finished galloping intersections
  uint64_t scalar_union = 0;   // scalar union merges
  uint64_t simd_union = 0;     // bitonic-network union merges
  uint64_t block_probes = 0;   // bulk block probes through a cursor

  KernelCounters& operator+=(const KernelCounters& o);
  KernelCounters operator-(const KernelCounters& o) const;
  uint64_t Total() const;
};

// Mutable reference to the calling thread's tallies.
KernelCounters& ThreadKernelCounters();

// ------------------------------------------------------------- kernels
//
// All *Into kernels append to `out` without clearing it. Inputs must be
// strictly increasing. The Scalar/Simd pairs are exact behavioral twins.

void ScalarMergeIntersectInto(std::span<const uint32_t> a,
                              std::span<const uint32_t> b,
                              std::vector<uint32_t>* out);
void SimdMergeIntersectInto(std::span<const uint32_t> a,
                            std::span<const uint32_t> b,
                            std::vector<uint32_t>* out);

// `small` should be the shorter list; both orders are correct.
void ScalarGallopIntersectInto(std::span<const uint32_t> small,
                               std::span<const uint32_t> large,
                               std::vector<uint32_t>* out);
void SimdGallopIntersectInto(std::span<const uint32_t> small,
                             std::span<const uint32_t> large,
                             std::vector<uint32_t>* out);

void ScalarMergeUnionInto(std::span<const uint32_t> a,
                          std::span<const uint32_t> b,
                          std::vector<uint32_t>* out);
void SimdMergeUnionInto(std::span<const uint32_t> a,
                        std::span<const uint32_t> b,
                        std::vector<uint32_t>* out);

// ------------------------------------------------------------- planner

// Adaptive intersection of two uncompressed sorted lists: orders the pair,
// picks merge vs gallop by ChooseIntersectStrategy, scalar vs SIMD by the
// current KernelMode. Appends to `out`.
void IntersectKernelInto(std::span<const uint32_t> a,
                         std::span<const uint32_t> b,
                         std::vector<uint32_t>* out);

// Union of two uncompressed sorted lists through the mode-selected merge
// kernel. Appends to `out`.
void UnionKernelInto(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     std::vector<uint32_t>* out);

// Bulk block-probe step: intersects a slice of ascending probe values with
// one decoded block (<= a few hundred values, e.g. a 128-element list block
// or PEF partition), appending matches. Binary-searches per probe when the
// slice is tiny relative to the block (kBlockMergeRatio), merges otherwise.
void IntersectSliceWithBlockInto(std::span<const uint32_t> probe,
                                 std::span<const uint32_t> block,
                                 std::vector<uint32_t>* out);

// --------------------------------------------------------- calibration

// Measured unit costs of the kernels above on this host under the current
// KernelMode — the calibrated inputs to the query planner's cost model
// (planner/strategy.h). All figures are nanoseconds.
struct KernelCostProfile {
  double merge_ns_per_elem = 0.5;    // merge intersect, per element scanned
  double gallop_ns_per_probe = 8.0;  // gallop intersect, per small-side probe
  double union_ns_per_elem = 0.7;    // union merge, per element scanned
};

// Times the merge, gallop, and union kernels over synthetic sorted lists of
// ~`sample_size` elements (deterministic contents) and returns per-unit
// costs. Costs a few hundred microseconds; callers cache the profile
// (planner/strategy.h's DefaultCostModel does, once per process).
KernelCostProfile MeasureKernelCosts(size_t sample_size = size_t{1} << 14);

}  // namespace intcomp

#endif  // INTCOMP_COMMON_SIMD_INTERSECT_H_

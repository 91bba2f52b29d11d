#include "common/simd_intersect.h"

#include <atomic>
#include <bit>
#include <cassert>

#include "common/fast_clock.h"

#include "obs/trace.h"

#if defined(__SSE4_1__)
#include <immintrin.h>
#define INTCOMP_SIMD_SETOPS 1
#else
#define INTCOMP_SIMD_SETOPS 0
#endif

namespace intcomp {
namespace {

std::atomic<KernelMode> g_kernel_mode{KernelMode::kAuto};

#if INTCOMP_SIMD_SETOPS
// Shuffle control bytes that compact the 32-bit lanes selected by a 4-bit
// mask to the front of the register (unset lanes become zero and are cut by
// the output-length bump). Built once at compile time.
struct ShuffleTable {
  alignas(16) uint8_t entries[16][16];
  constexpr ShuffleTable() : entries() {
    for (int mask = 0; mask < 16; ++mask) {
      int out = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if (mask & (1 << lane)) {
          for (int byte = 0; byte < 4; ++byte) {
            entries[mask][out * 4 + byte] =
                static_cast<uint8_t>(lane * 4 + byte);
          }
          ++out;
        }
      }
      for (int rest = out * 4; rest < 16; ++rest) {
        entries[mask][rest] = 0xFF;
      }
    }
  }
};
constexpr ShuffleTable kShuffle;

// Sorts a bitonic 4-sequence ascending (two compare-exchange stages).
inline __m128i BitonicSort4(__m128i v) {
  __m128i t = _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
  __m128i mn = _mm_min_epu32(v, t);
  __m128i mx = _mm_max_epu32(v, t);
  v = _mm_blend_epi16(mn, mx, 0xF0);  // exchange (0,2) (1,3)
  t = _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1));
  mn = _mm_min_epu32(v, t);
  mx = _mm_max_epu32(v, t);
  return _mm_blend_epi16(mn, mx, 0xCC);  // exchange (0,1) (2,3)
}

// Merges two sorted 4-vectors: afterwards `a` holds the 4 smallest and `b`
// the 4 largest of the union, each sorted ascending (Inoue-style bitonic
// merge network).
inline void BitonicMerge4x4(__m128i& a, __m128i& b) {
  b = _mm_shuffle_epi32(b, _MM_SHUFFLE(0, 1, 2, 3));  // reverse: a|b bitonic
  __m128i lo = _mm_min_epu32(a, b);
  __m128i hi = _mm_max_epu32(a, b);
  a = BitonicSort4(lo);
  b = BitonicSort4(hi);
}

// Appends `lo` (sorted) to dst, dropping lanes equal to their predecessor;
// `prev` carries the previously emitted vector (its top lane is the last
// value written). Returns the number of lanes kept. dst must have 4 lanes
// of slack.
inline size_t EmitDedup4(__m128i lo, __m128i* prev, uint32_t* dst) {
  const __m128i shifted = _mm_alignr_epi8(lo, *prev, 12);
  const int dup =
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, shifted)));
  const int keep = ~dup & 0xF;
  const __m128i packed = _mm_shuffle_epi8(
      lo, _mm_load_si128(
              reinterpret_cast<const __m128i*>(kShuffle.entries[keep])));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), packed);
  *prev = lo;
  return static_cast<size_t>(std::popcount(static_cast<unsigned>(keep)));
}
#endif  // INTCOMP_SIMD_SETOPS

// Shared scalar core for the merge-intersection twins (counted by caller).
void MergeIntersectScalarCore(std::span<const uint32_t> a,
                              std::span<const uint32_t> b, size_t i, size_t j,
                              std::vector<uint32_t>* out) {
  while (i < a.size() && j < b.size()) {
    const uint32_t va = a[i], vb = b[j];
    if (va < vb) {
      ++i;
    } else if (vb < va) {
      ++j;
    } else {
      out->push_back(va);
      ++i;
      ++j;
    }
  }
}

// Narrows to the window (lo, hi] with large[lo] < v <= large[hi] by
// exponential probing from `from` then bisection down to <= 8 candidates.
// Preconditions: large[from] < v and large[n-1] >= v. Returns lo.
size_t GallopWindow(std::span<const uint32_t> large, size_t from, uint32_t v) {
  size_t lo = from;
  size_t step = 8;
  size_t hi = lo + step;
  while (hi < large.size() && large[hi] < v) {
    lo = hi;
    step *= 2;
    hi = lo + step;
  }
  if (hi >= large.size()) hi = large.size() - 1;  // large[n-1] >= v
  while (hi - lo > 8) {
    const size_t mid = lo + (hi - lo) / 2;
    if (large[mid] < v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void SetKernelMode(KernelMode mode) {
  g_kernel_mode.store(mode, std::memory_order_relaxed);
}

KernelMode GetKernelMode() {
  return g_kernel_mode.load(std::memory_order_relaxed);
}

bool SimdKernelsAvailable() { return INTCOMP_SIMD_SETOPS != 0; }

bool ParseKernelMode(std::string_view text, KernelMode* mode) {
  if (text == "scalar") {
    *mode = KernelMode::kScalar;
  } else if (text == "simd") {
    *mode = KernelMode::kSimd;
  } else if (text == "auto") {
    *mode = KernelMode::kAuto;
  } else {
    return false;
  }
  return true;
}

std::string_view KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar: return "scalar";
    case KernelMode::kSimd: return "simd";
    case KernelMode::kAuto: return "auto";
  }
  return "?";
}

KernelCounters& KernelCounters::operator+=(const KernelCounters& o) {
  scalar_merge += o.scalar_merge;
  simd_merge += o.simd_merge;
  scalar_gallop += o.scalar_gallop;
  simd_gallop += o.simd_gallop;
  scalar_union += o.scalar_union;
  simd_union += o.simd_union;
  block_probes += o.block_probes;
  return *this;
}

KernelCounters KernelCounters::operator-(const KernelCounters& o) const {
  KernelCounters d;
  d.scalar_merge = scalar_merge - o.scalar_merge;
  d.simd_merge = simd_merge - o.simd_merge;
  d.scalar_gallop = scalar_gallop - o.scalar_gallop;
  d.simd_gallop = simd_gallop - o.simd_gallop;
  d.scalar_union = scalar_union - o.scalar_union;
  d.simd_union = simd_union - o.simd_union;
  d.block_probes = block_probes - o.block_probes;
  return d;
}

uint64_t KernelCounters::Total() const {
  return scalar_merge + simd_merge + scalar_gallop + simd_gallop +
         scalar_union + simd_union + block_probes;
}

KernelCounters& ThreadKernelCounters() {
  thread_local KernelCounters counters;
  return counters;
}

// ------------------------------------------------------------- kernels

void ScalarMergeIntersectInto(std::span<const uint32_t> a,
                              std::span<const uint32_t> b,
                              std::vector<uint32_t>* out) {
  ThreadKernelCounters().scalar_merge += 1;
  MergeIntersectScalarCore(a, b, 0, 0, out);
}

void SimdMergeIntersectInto(std::span<const uint32_t> a,
                            std::span<const uint32_t> b,
                            std::vector<uint32_t>* out) {
#if INTCOMP_SIMD_SETOPS
  ThreadKernelCounters().simd_merge += 1;
  const size_t na4 = a.size() & ~size_t{3};
  const size_t nb4 = b.size() & ~size_t{3};
  size_t i = 0, j = 0;
  if (na4 != 0 && nb4 != 0) {
    const size_t base = out->size();
    out->resize(base + std::min(a.size(), b.size()) + 4);
    uint32_t* dst = out->data() + base;
    size_t k = 0;
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data()));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data()));
    while (true) {
      // Compare va against all four rotations of vb: each value matches at
      // most one lane (inputs are strictly increasing).
      __m128i cmp = _mm_cmpeq_epi32(va, vb);
      cmp = _mm_or_si128(
          cmp, _mm_cmpeq_epi32(
                   va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
      cmp = _mm_or_si128(
          cmp, _mm_cmpeq_epi32(
                   va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
      cmp = _mm_or_si128(
          cmp, _mm_cmpeq_epi32(
                   va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
      const int mask = _mm_movemask_ps(_mm_castsi128_ps(cmp));
      const __m128i packed = _mm_shuffle_epi8(
          va, _mm_load_si128(
                  reinterpret_cast<const __m128i*>(kShuffle.entries[mask])));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + k), packed);
      k += static_cast<size_t>(std::popcount(static_cast<unsigned>(mask)));
      const uint32_t amax = a[i + 3];
      const uint32_t bmax = b[j + 3];
      if (amax <= bmax) {
        i += 4;
        if (i == na4) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data() + i));
      }
      if (bmax <= amax) {
        j += 4;
        if (j == nb4) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + j));
      }
    }
    out->resize(base + k);
  }
  MergeIntersectScalarCore(a, b, i, j, out);
#else
  ScalarMergeIntersectInto(a, b, out);
#endif
}

void ScalarGallopIntersectInto(std::span<const uint32_t> small,
                               std::span<const uint32_t> large,
                               std::vector<uint32_t>* out) {
  ThreadKernelCounters().scalar_gallop += 1;
  const size_t n = large.size();
  if (n == 0) return;
  size_t j = 0;
  for (const uint32_t v : small) {
    if (j >= n || large[n - 1] < v) break;
    if (large[j] < v) {
      const size_t lo = GallopWindow(large, j, v);
      j = lo + 1;
      while (large[j] < v) ++j;  // <= 8 steps; large[hi] >= v bounds the scan
    }
    if (large[j] == v) {
      out->push_back(v);
      ++j;
    }
  }
}

void SimdGallopIntersectInto(std::span<const uint32_t> small,
                             std::span<const uint32_t> large,
                             std::vector<uint32_t>* out) {
#if defined(__AVX2__)
  ThreadKernelCounters().simd_gallop += 1;
  const size_t n = large.size();
  if (n == 0) return;
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  size_t j = 0;
  for (const uint32_t v : small) {
    if (j >= n || large[n - 1] < v) break;
    if (large[j] < v) {
      const size_t w = GallopWindow(large, j, v) + 1;
      if (w + 8 <= n) {
        // Rank v within the 8-candidate window in one compare instead of
        // the last three bisection levels.
        const __m256i win = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(large.data() + w)),
            bias);
        const __m256i vv =
            _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(v)), bias);
        const int lt = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(vv, win)));
        j = w + static_cast<size_t>(std::popcount(static_cast<unsigned>(lt)));
      } else {
        j = w;
        while (large[j] < v) ++j;
      }
    }
    if (large[j] == v) {
      out->push_back(v);
      ++j;
    }
  }
#else
  ScalarGallopIntersectInto(small, large, out);
#endif
}

void ScalarMergeUnionInto(std::span<const uint32_t> a,
                          std::span<const uint32_t> b,
                          std::vector<uint32_t>* out) {
  ThreadKernelCounters().scalar_union += 1;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t va = a[i], vb = b[j];
    if (va < vb) {
      out->push_back(va);
      ++i;
    } else if (vb < va) {
      out->push_back(vb);
      ++j;
    } else {
      out->push_back(va);
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + i, a.end());
  out->insert(out->end(), b.begin() + j, b.end());
}

void SimdMergeUnionInto(std::span<const uint32_t> a,
                        std::span<const uint32_t> b,
                        std::vector<uint32_t>* out) {
#if INTCOMP_SIMD_SETOPS
  const size_t na4 = a.size() & ~size_t{3};
  const size_t nb4 = b.size() & ~size_t{3};
  if (na4 == 0 || nb4 == 0) {
    ScalarMergeUnionInto(a, b, out);
    return;
  }
  ThreadKernelCounters().simd_union += 1;
  const size_t base = out->size();
  out->resize(base + a.size() + b.size() + 4);
  uint32_t* dst = out->data() + base;
  size_t k = 0;

  __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data()));
  __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data()));
  size_t i = 4, j = 4;
  // Seed the dedup carry with a value that cannot equal the first output
  // (x != ~x for every uint32).
  __m128i prev = _mm_set1_epi32(static_cast<int>(~std::min(a[0], b[0])));
  BitonicMerge4x4(va, vb);
  k += EmitDedup4(va, &prev, dst + k);
  __m128i pending = vb;
  while (true) {
    __m128i next;
    // Pull from the list with the smaller head — the FULL-list head, so a
    // short scalar tail participates in the choice — and stop as soon as
    // that list cannot supply a whole vector. Choosing by the smaller head
    // keeps every loaded value below both unloaded heads (loaded values of
    // each list precede its own head; the chosen head is <= the other), so
    // the emitted stream stays globally sorted and everything left for the
    // scalar flush is >= the last emitted value.
    if (j >= b.size() || (i < a.size() && a[i] <= b[j])) {
      if (i + 4 > a.size()) break;
      next = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data() + i));
      i += 4;
    } else {
      if (j + 4 > b.size()) break;
      next = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + j));
      j += 4;
    }
    BitonicMerge4x4(pending, next);
    k += EmitDedup4(pending, &prev, dst + k);
    pending = next;
  }

  // Flush: the pending high vector plus both scalar tails, three-way merged
  // with deduplication against the last emitted value.
  alignas(16) uint32_t tmp[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(tmp), pending);
  const uint32_t* heads[3] = {tmp, a.data() + i, b.data() + j};
  const uint32_t* ends[3] = {tmp + 4, a.data() + a.size(),
                             b.data() + b.size()};
  uint32_t last = dst[k - 1];  // k >= 1: the first emit always keeps lane 0
  while (true) {
    bool any = false;
    uint32_t m = 0;
    for (int s = 0; s < 3; ++s) {
      if (heads[s] < ends[s] && (!any || *heads[s] < m)) {
        m = *heads[s];
        any = true;
      }
    }
    if (!any) break;
    for (int s = 0; s < 3; ++s) {
      if (heads[s] < ends[s] && *heads[s] == m) ++heads[s];
    }
    if (m != last) {
      dst[k++] = m;
      last = m;
    }
  }
  out->resize(base + k);
#else
  ScalarMergeUnionInto(a, b, out);
#endif
}

// ------------------------------------------------------------- planner

void IntersectKernelInto(std::span<const uint32_t> a,
                         std::span<const uint32_t> b,
                         std::vector<uint32_t>* out) {
  TRACE_SPAN("kernel_dispatch");
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return;
  const bool simd = UseSimdKernels(GetKernelMode());
  if (ChooseIntersectStrategy(a.size(), b.size()) ==
      IntersectStrategy::kGallop) {
    if (simd) {
      SimdGallopIntersectInto(a, b, out);
    } else {
      ScalarGallopIntersectInto(a, b, out);
    }
  } else {
    if (simd) {
      SimdMergeIntersectInto(a, b, out);
    } else {
      ScalarMergeIntersectInto(a, b, out);
    }
  }
}

void UnionKernelInto(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     std::vector<uint32_t>* out) {
  TRACE_SPAN("kernel_dispatch");
  if (UseSimdKernels(GetKernelMode())) {
    SimdMergeUnionInto(a, b, out);
  } else {
    ScalarMergeUnionInto(a, b, out);
  }
}

void IntersectSliceWithBlockInto(std::span<const uint32_t> probe,
                                 std::span<const uint32_t> block,
                                 std::vector<uint32_t>* out) {
  if (probe.empty() || block.empty()) return;
  ThreadKernelCounters().block_probes += 1;
  if (probe.size() * kBlockMergeRatio < block.size()) {
    // Sparse probes: bisect the block per probe, advancing the left bound
    // (probes ascend, so each search shrinks the remaining range).
    const uint32_t* lo = block.data();
    const uint32_t* const end = block.data() + block.size();
    for (const uint32_t v : probe) {
      lo = std::lower_bound(lo, end, v);
      if (lo == end) break;
      if (*lo == v) {
        out->push_back(v);
        ++lo;
      }
    }
    return;
  }
  if (UseSimdKernels(GetKernelMode())) {
    SimdMergeIntersectInto(probe, block, out);
  } else {
    ScalarMergeIntersectInto(probe, block, out);
  }
}

KernelCostProfile MeasureKernelCosts(size_t sample_size) {
  KernelCostProfile profile;
  const size_t n = std::max<size_t>(sample_size, 1024);
  // Deterministic synthetic inputs: two interleaved ascending lists with
  // ~50% overlap (merge/union regime) and one 64x-skewed pair (gallop
  // regime). An LCG keeps the gaps irregular without <random>.
  std::vector<uint32_t> a, b, small;
  a.reserve(n);
  b.reserve(n);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  uint32_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v += 1 + static_cast<uint32_t>((state >> 33) & 7);
    a.push_back(v);
    if ((state >> 62) != 0) b.push_back(v);  // ~75% shared
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    if (((state >> 33) & 1) != 0) b.push_back(v + 1);
  }
  for (size_t i = 0; i < a.size(); i += 64) small.push_back(a[i]);

  std::vector<uint32_t> out;
  out.reserve(a.size() + b.size());
  // One warm pass per kernel (page in the buffers), then a timed pass.
  auto time_ns = [&out](auto&& fn) -> double {
    out.clear();
    fn();
    const uint64_t start = NowNs();
    out.clear();
    fn();
    return static_cast<double>(NowNs() - start);
  };

  const double merge_ns = time_ns([&] {
    if (UseSimdKernels(GetKernelMode())) {
      SimdMergeIntersectInto(a, b, &out);
    } else {
      ScalarMergeIntersectInto(a, b, &out);
    }
  });
  profile.merge_ns_per_elem =
      merge_ns / static_cast<double>(a.size() + b.size());

  const double gallop_ns = time_ns([&] {
    if (UseSimdKernels(GetKernelMode())) {
      SimdGallopIntersectInto(small, b, &out);
    } else {
      ScalarGallopIntersectInto(small, b, &out);
    }
  });
  profile.gallop_ns_per_probe =
      gallop_ns / static_cast<double>(std::max<size_t>(small.size(), 1));

  const double union_ns = time_ns([&] {
    if (UseSimdKernels(GetKernelMode())) {
      SimdMergeUnionInto(a, b, &out);
    } else {
      ScalarMergeUnionInto(a, b, &out);
    }
  });
  profile.union_ns_per_elem =
      union_ns / static_cast<double>(a.size() + b.size());
  return profile;
}

}  // namespace intcomp

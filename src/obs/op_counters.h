// Per-thread tallies of query-path work, sampled as per-query deltas by the
// batch engine (exactly like KernelCounters in common/simd_intersect.h) and
// added to the metrics registry's engine.* counters.
//
// Counters are incremented unconditionally: every site is amortized over at
// least a block's worth of work (the BlockedCursor batches its counts
// locally and flushes once per cursor), so the cost stays inside the
// observability layer's disabled-overhead budget.

#ifndef INTCOMP_OBS_OP_COUNTERS_H_
#define INTCOMP_OBS_OP_COUNTERS_H_

#include <cstdint>

namespace intcomp {
namespace obs {

struct OpCounters {
  // Compressed sets the query path evaluated against (decoded, intersected,
  // or probed).
  uint64_t lists_touched = 0;
  // Compressed bytes of every set that was fully decoded.
  uint64_t bytes_decoded = 0;
  // Blocked-list cursor traffic: blocks decoded vs. blocks the skip
  // pointers let the cursor jump over without decoding. skipped/(loaded+
  // skipped) is the skip-pointer hit rate.
  uint64_t blocks_loaded = 0;
  uint64_t blocks_skipped = 0;

  OpCounters& operator+=(const OpCounters& o) {
    lists_touched += o.lists_touched;
    bytes_decoded += o.bytes_decoded;
    blocks_loaded += o.blocks_loaded;
    blocks_skipped += o.blocks_skipped;
    return *this;
  }
  OpCounters operator-(const OpCounters& o) const {
    OpCounters d;
    d.lists_touched = lists_touched - o.lists_touched;
    d.bytes_decoded = bytes_decoded - o.bytes_decoded;
    d.blocks_loaded = blocks_loaded - o.blocks_loaded;
    d.blocks_skipped = blocks_skipped - o.blocks_skipped;
    return d;
  }
};

// Mutable reference to the calling thread's tallies.
inline OpCounters& ThreadOpCounters() {
  thread_local OpCounters counters;
  return counters;
}

}  // namespace obs
}  // namespace intcomp

#endif  // INTCOMP_OBS_OP_COUNTERS_H_

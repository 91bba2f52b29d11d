// Parallel batch evaluation of query plans over a shared immutable index.
//
// One task per query is scheduled onto the work-stealing pool; each task
// runs the exact same serial algorithm as EvaluatePlan, writing into its
// own result slot and drawing temporaries from the executing worker's
// ScratchArena. Because queries never share mutable state and the per-query
// algorithm is untouched, results are bit-identical to the serial path
// regardless of thread count or schedule — the determinism guarantee the
// differential tests pin down.
//
// Arena ownership: the executor owns NumWorkers() arenas, created lazily on
// first Execute and kept across batches, so decode-buffer capacity warms up
// once and steady-state batches allocate only their result storage. An
// arena is only ever touched by the worker whose index it carries, which is
// what makes the unlocked arena safe.
//
// The CompressedSets and the codec must stay alive and unmodified for the
// duration of Execute; codecs are stateless (core/codec.h) so one codec
// instance may serve all workers concurrently.

#ifndef INTCOMP_ENGINE_BATCH_EXECUTOR_H_
#define INTCOMP_ENGINE_BATCH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/codec.h"
#include "core/query.h"
#include "core/scratch.h"
#include "engine/engine_stats.h"
#include "engine/thread_pool.h"

namespace intcomp {

// A batch: every plan is evaluated with `codec` against the shared `sets`
// slice (plans reference sets by index, as in EvaluatePlan).
//
// Fault containment: queries are evaluated through EvaluatePlanChecked, so
// a malformed plan, a missing (null) set slot, an elapsed deadline, or a
// tripped cancel token fails only its own query — the slot's result list
// comes back empty, the per-query Status in the report says why, and every
// healthy query's result is bit-identical to a serial EvaluatePlan run.
struct QueryBatch {
  const Codec* codec = nullptr;
  std::span<const QueryPlan> plans;
  std::span<const CompressedSet* const> sets;

  // Deadline applied to every query, measured from the moment the query
  // starts executing on a worker (0 = none). Deadlines are polled at plan
  // node boundaries, so overrun latency is bounded by one node.
  uint64_t default_deadline_ns = 0;
  // Optional per-query override of default_deadline_ns: either empty or
  // plans.size() entries (0 = fall back to the default).
  std::span<const uint64_t> deadlines_ns = {};
  // Optional batch-wide cancellation (e.g. client disconnect); checked by
  // every query alongside its own deadline. Must outlive Execute.
  const CancellationToken* cancel = nullptr;
};

class BatchExecutor {
 public:
  // The pool is borrowed and may be shared by several executors over its
  // lifetime (not concurrently — Execute assumes the pool quiesces for it).
  explicit BatchExecutor(ThreadPool* pool);

  // Evaluates all plans; element i of the result corresponds to plans[i].
  // When `report` is non-null it is overwritten with this batch's counters
  // (deltas only — consecutive batches on a re-used pool don't accumulate)
  // and its per_query vector holds each query's Status; failed queries have
  // empty result lists and never affect their neighbors.
  std::vector<std::vector<uint32_t>> Execute(const QueryBatch& batch,
                                             BatchReport* report = nullptr);

  // Total scratch buffers currently retained across all worker arenas.
  size_t ScratchBuffers() const;

 private:
  ThreadPool* pool_;
  std::vector<std::unique_ptr<ScratchArena>> arenas_;  // one per worker
};

}  // namespace intcomp

#endif  // INTCOMP_ENGINE_BATCH_EXECUTOR_H_

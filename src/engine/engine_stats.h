// Per-worker execution counters for the batch query engine.
//
// The executor fills one WorkerCounters per pool worker for each batch
// (steal / busy / idle numbers are deltas against the pool's monotonic
// counters, so re-using a pool across batches never double-counts), then
// merges them into a BatchReport that benches print as a per-core scaling
// table. Long-lived totals live in the metrics registry, not here: the
// executor adds each batch's engine.* and kernel.* counters to it.

#ifndef INTCOMP_ENGINE_ENGINE_STATS_H_
#define INTCOMP_ENGINE_ENGINE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd_intersect.h"
#include "common/status.h"

namespace intcomp {

struct WorkerCounters {
  uint64_t queries = 0;      // plans this worker evaluated
  uint64_t result_ints = 0;  // integers materialized into result lists
  uint64_t steals = 0;       // tasks taken from another worker's deque
  uint64_t busy_ns = 0;      // wall time inside tasks
  uint64_t idle_ns = 0;      // wall time asleep waiting for work

  // Fault-containment outcome tallies (queries == ok + rejected +
  // timed_out + cancelled + failed).
  uint64_t ok = 0;         // completed successfully
  uint64_t rejected = 0;   // kInvalidArgument: bad plan or missing set
  uint64_t timed_out = 0;  // kDeadlineExceeded
  uint64_t cancelled = 0;  // kCancelled
  uint64_t failed = 0;     // kCorruptData / kInternal

  // Which set-operation kernels this worker's queries executed (sampled as
  // per-query deltas of the thread-local tallies in common/simd_intersect.h).
  KernelCounters kernels;

  WorkerCounters& operator+=(const WorkerCounters& o);
};

struct BatchReport {
  std::vector<WorkerCounters> per_worker;
  // Outcome of each query, indexed like the batch's plans. Healthy queries
  // are OK; a non-OK entry means the matching result list is empty and the
  // failure never touched any other query's result.
  std::vector<Status> per_query;
  double wall_ms = 0;  // batch wall time as seen by the submitting thread

  size_t NumWorkers() const { return per_worker.size(); }

  // Sum of all workers' counters.
  WorkerCounters Totals() const;

  // Fraction of worker wall time spent inside tasks, in [0, 1];
  // the per-core scaling headroom indicator benches print.
  double BusyFraction() const;

  // Multi-line human-readable table: one row per worker plus a totals row.
  std::string ToString() const;
};

}  // namespace intcomp

#endif  // INTCOMP_ENGINE_ENGINE_STATS_H_

#include "engine/batch_executor.h"

#include "benchutil/timer.h"
#include "common/fast_clock.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace intcomp {

BatchExecutor::BatchExecutor(ThreadPool* pool) : pool_(pool) {
  arenas_.reserve(pool_->NumWorkers());
  for (size_t w = 0; w < pool_->NumWorkers(); ++w) {
    arenas_.push_back(std::make_unique<ScratchArena>());
  }
}

std::vector<std::vector<uint32_t>> BatchExecutor::Execute(
    const QueryBatch& batch, BatchReport* report) {
  // Root span on the submitting thread; ThreadPool::Enqueue forwards the
  // context so every per-query span below nests under it.
  TRACE_SPAN("batch");
  const size_t nworkers = pool_->NumWorkers();
  const size_t nplans = batch.plans.size();
  std::vector<std::vector<uint32_t>> results(nplans);

  // Snapshot the pool's monotonic counters so the report holds per-batch
  // deltas even when the pool is re-used across batches.
  std::vector<uint64_t> steals0(nworkers), busy0(nworkers), idle0(nworkers);
  for (size_t w = 0; w < nworkers; ++w) {
    steals0[w] = pool_->Steals(w);
    busy0[w] = pool_->BusyNs(w);
    idle0[w] = pool_->IdleNs(w);
  }

  // Per-worker tallies, padded so workers never write the same cache line.
  struct alignas(64) Tally {
    uint64_t queries = 0;
    uint64_t result_ints = 0;
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t timed_out = 0;
    uint64_t cancelled = 0;
    uint64_t failed = 0;
    KernelCounters kernels;
    obs::OpCounters ops;
  };
  std::vector<Tally> tallies(nworkers);
  // One Status slot per query; each slot is written by exactly one task, so
  // no synchronization beyond the pool's Wait() barrier is needed.
  std::vector<Status> statuses(nplans);

  // Hoist the metrics decision (and the histogram pointer it needs) out of
  // the per-query tasks: disabled-path cost is this one relaxed load.
  obs::LatencyHistogram* query_hist =
      obs::MetricsRegistry::Global().Enabled()
          ? obs::MetricsRegistry::Global().OpLatency(batch.codec->Name(),
                                                     obs::OpKind::kQuery)
          : nullptr;

  WallTimer timer;
  const Codec* codec = batch.codec;
  const std::span<const QueryPlan> plans = batch.plans;
  const std::span<const CompressedSet* const> sets = batch.sets;
  const uint64_t default_deadline_ns = batch.default_deadline_ns;
  const std::span<const uint64_t> deadlines = batch.deadlines_ns;
  const CancellationToken* batch_cancel = batch.cancel;
  for (size_t q = 0; q < nplans; ++q) {
    const uint64_t deadline_ns =
        (q < deadlines.size() && deadlines[q] != 0) ? deadlines[q]
                                                    : default_deadline_ns;
    pool_->Submit([this, codec, plans, sets, &results, &tallies, &statuses,
                   q, deadline_ns, batch_cancel, query_hist](size_t worker) {
      TRACE_SPAN("query");
      std::vector<uint32_t>& out = results[q];
      // The deadline clock starts when the query starts executing, so a
      // query queued behind a long batch is not penalized for the wait.
      CancellationToken token;
      token.ChainParent(batch_cancel);
      token.SetDeadlineAfterNs(deadline_ns);
      const CancellationToken* tok =
          (deadline_ns != 0 || batch_cancel != nullptr) ? &token : nullptr;
      // Deltas of the thread-local kernel / op tallies across the evaluation
      // add this query's kernels and touched data to the worker's tally.
      const KernelCounters kernels_before = ThreadKernelCounters();
      const obs::OpCounters ops_before = obs::ThreadOpCounters();
      const uint64_t t0 = query_hist != nullptr ? NowNs() : 0;
      Status st = EvaluatePlanChecked(*codec, plans[q], sets, tok,
                                      arenas_[worker].get(), &out);
      if (query_hist != nullptr) query_hist->Record(NowNs() - t0);
      Tally& t = tallies[worker];
      t.queries += 1;
      t.result_ints += out.size();
      t.kernels += ThreadKernelCounters() - kernels_before;
      t.ops += obs::ThreadOpCounters() - ops_before;
      switch (st.code()) {
        case StatusCode::kOk: t.ok += 1; break;
        case StatusCode::kInvalidArgument: t.rejected += 1; break;
        case StatusCode::kDeadlineExceeded: t.timed_out += 1; break;
        case StatusCode::kCancelled: t.cancelled += 1; break;
        default: t.failed += 1; break;
      }
      statuses[q] = std::move(st);
    });
  }
  pool_->Wait();
  const double wall_ms = timer.ElapsedMs();

  if (query_hist != nullptr) {
    KernelCounters batch_kernels;
    obs::OpCounters batch_ops;
    for (const Tally& t : tallies) {
      batch_kernels += t.kernels;
      batch_ops += t.ops;
    }
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.RecordKernelCounters(codec->Name(), batch_kernels);
    reg.AddCounter("engine.lists_touched", batch_ops.lists_touched);
    reg.AddCounter("engine.bytes_decoded", batch_ops.bytes_decoded);
    reg.AddCounter("engine.blocks_loaded", batch_ops.blocks_loaded);
    reg.AddCounter("engine.blocks_skipped", batch_ops.blocks_skipped);
  }

  if (report != nullptr) {
    report->per_worker.assign(nworkers, WorkerCounters{});
    report->per_query = std::move(statuses);
    report->wall_ms = wall_ms;
    for (size_t w = 0; w < nworkers; ++w) {
      WorkerCounters& c = report->per_worker[w];
      c.queries = tallies[w].queries;
      c.result_ints = tallies[w].result_ints;
      c.steals = pool_->Steals(w) - steals0[w];
      c.busy_ns = pool_->BusyNs(w) - busy0[w];
      c.idle_ns = pool_->IdleNs(w) - idle0[w];
      c.ok = tallies[w].ok;
      c.rejected = tallies[w].rejected;
      c.timed_out = tallies[w].timed_out;
      c.cancelled = tallies[w].cancelled;
      c.failed = tallies[w].failed;
      c.kernels = tallies[w].kernels;
    }
  }
  return results;
}

size_t BatchExecutor::ScratchBuffers() const {
  size_t total = 0;
  for (const auto& a : arenas_) total += a->BuffersAllocated();
  return total;
}

}  // namespace intcomp

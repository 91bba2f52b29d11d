// Per-layer probes for the traced run. Each probe times calls into one
// layer of the program from here, records a span around every timed call
// (or batch of calls, for sub-microsecond work), and reports the layer's
// metrics by their BENCHMARK.json names.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/query.h"
#include "engine/thread_pool.h"
#include "service/sharded_index.h"
#include "storage/live_index.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

struct LayerContext {
  Tracer* tracer = nullptr;
  Report* report = nullptr;
  intcomp::IndexService* service = nullptr;  // the workload's service
  std::shared_ptr<const intcomp::IndexSnapshot> snapshot;  // clean, Planner
  intcomp::ThreadPool* pool = nullptr;
  const Dataset* data = nullptr;
  uint16_t port = 0;                        // a QueryServer over `service`
  std::vector<intcomp::QueryPlan> fresh;    // plans the workload never sent
  std::vector<std::string> texts;           // the workload's own plan texts
};

// Plans no workload request uses (70% light, 30% heavy), so the probes see
// cache misses first.
std::vector<intcomp::QueryPlan> FreshPlans(uint64_t seed, size_t num_lists);
// ProbeService (first: it needs the fresh plans uncached), ProbeNet and
// ProbeCodecs.
void ProbeLayers(const LayerContext& ctx);
// storage.wal_*, storage.sync_us and service.overlay_query_us on a live
// index that took `rows_written` rows in all and still holds some deltas.
void ProbeLiveIndex(intcomp::storage::LiveIndex* live, intcomp::ThreadPool* pool,
                    std::span<const intcomp::QueryPlan> plans,
                    uint64_t rows_written, Tracer* tracer, Report* report);
// service.cache_hit_frac and service.cache_stale_frac over a phase.
void ReportCacheDelta(Report* report, const intcomp::ServiceStats& before,
                      const intcomp::ServiceStats& after);

// net.*: ping, request framing, response encode/parse, wire overhead.
void ProbeNet(const LayerContext& ctx);
// service.* (cache key, probe, hit/miss query, fan-out overhead) and
// core.plan_eval_ns_per_int.
void ProbeService(const LayerContext& ctx);
// {bitmap,invlist}.<codec>.{decode,and,or}_ns_per_int and planner.*.
void ProbeCodecs(const LayerContext& ctx);

// Summed worker counters of a pool, for before/after deltas.
struct PoolCounters {
  uint64_t busy_ns = 0, idle_ns = 0, steals = 0, tasks = 0;
  static PoolCounters Read(const intcomp::ThreadPool& pool);
};
void ReportPoolDelta(Report* report, const PoolCounters& before,
                     const PoolCounters& after);

// Times a no-op ParallelFor over the shard count every few milliseconds
// while load runs (engine.parallelfor_noop_us): the pool-wide Wait() makes
// it wait for whatever else the pool is running.
class NoopSampler {
 public:
  NoopSampler(intcomp::ThreadPool* pool, size_t shards, Tracer* tracer);
  ~NoopSampler();
  NoopSampler(const NoopSampler&) = delete;
  NoopSampler& operator=(const NoopSampler&) = delete;
  void Publish(Report* report);

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> samples_us_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

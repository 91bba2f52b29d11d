// MetricsRegistry: process-wide aggregation of latency histograms (keyed
// codec × operation) and named counters, with JSONL and Prometheus-text
// exporters.
//
// The registry is disabled by default; ScopedOpTimer then costs one relaxed
// atomic load. Benches enable it through the shared --metrics-out flag
// (benchutil/metrics_export.h); services would call
// MetricsRegistry::Global().SetEnabled(true) at startup.
//
// Hot-path protocol: look up the histogram pointer once (shared-lock map
// hit, ~100 ns, amortized over a microsecond-scale operation or hoisted out
// of the loop entirely — see BatchExecutor), then Record() lock-free.

#ifndef INTCOMP_OBS_METRICS_H_
#define INTCOMP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "common/fast_clock.h"
#include "common/simd_intersect.h"
#include "obs/histogram.h"

namespace intcomp {
namespace obs {

// The per-codec operations the paper's breakdowns attribute cost to, plus
// the engine-level whole-query roll-up.
enum class OpKind : uint8_t {
  kIntersect = 0,
  kUnion,
  kDecode,
  kDeserializeChecked,
  kQuery,
  kServiceQuery,  // whole sharded-service query: cache probe + fan-out
  kStorageOpen,   // container open: header/directory parse + validation
  kWalAppend,     // one durable WAL record: frame build + write (+ fsync)
  kCompaction,    // whole compaction: merge + rewrite + commit + swap
  kPlannerBuild,  // per-list codec selection + the chosen codec's encode
  kPlannerQuery,  // query-time strategy choice + mixed-codec execution
  kNetRequest,    // one served network request: decode + query + respond
  kHostProbe,     // fixed host-speed work unit (benchutil/host_probe.h)
};
inline constexpr size_t kNumOpKinds = 13;

std::string_view OpKindName(OpKind op);

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Stable pointer to the (codec, op) histogram, creating it on first use.
  // The pointer stays valid for the registry's lifetime — hoist it out of
  // loops that record many samples for one key.
  LatencyHistogram* OpLatency(std::string_view codec, OpKind op);

  void RecordOpLatency(std::string_view codec, OpKind op, uint64_t ns) {
    OpLatency(codec, op)->Record(ns);
  }

  void AddCounter(std::string_view name, uint64_t delta);
  uint64_t CounterValue(std::string_view name) const;

  // Gauges: last-write-wins point-in-time values (cache occupancy, queue
  // depths) — unlike counters they can go down, so exporters label them
  // separately and perf_check never gates their values.
  void SetGauge(std::string_view name, uint64_t value);
  uint64_t GaugeValue(std::string_view name) const;

  // Folds a per-codec KernelCounters delta into counters named
  // "kernel.<codec>.<kernel>" (only non-zero fields).
  void RecordKernelCounters(std::string_view codec, const KernelCounters& k);

  // One JSON object per line:
  //   {"metric":"meta","bench":...,"kernel":...,"trace_sampling":N}
  //   {"metric":"op_latency","codec":...,"op":...,"count":N,"mean_ns":...,
  //    "p50_ns":...,"p90_ns":...,"p99_ns":...,"p999_ns":...}
  //   {"metric":"counter","name":...,"value":N}
  //   {"metric":"gauge","name":...,"value":N}
  // Keys iterate in map order, so output is deterministic for a given set of
  // recorded metrics — which is what lets tools/perf_check.py diff runs.
  std::string ExportJsonl(std::string_view bench_name) const;

  // Prometheus text exposition: intcomp_op_latency_ns{codec=,op=,quantile=}
  // summaries plus intcomp_counter{name=} counters.
  std::string ExportPrometheus() const;

  // Writes ExportJsonl (format "jsonl") or ExportPrometheus (format "prom")
  // to `path`. Returns false on I/O failure or unknown format.
  bool ExportToFile(const std::string& path, std::string_view format,
                    std::string_view bench_name) const;

  // Drops every histogram and counter (testing).
  void Reset();

 private:
  using OpHistograms = std::array<LatencyHistogram, kNumOpKinds>;

  std::atomic<bool> enabled_{false};
  mutable std::shared_mutex mu_;
  // std::map: deterministic export order; unique_ptr: histograms hold
  // atomics and must never move.
  std::map<std::string, std::unique_ptr<OpHistograms>, std::less<>> latency_;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>, std::less<>>
      gauges_;
};

// Times one codec operation into the global registry; a no-op (one relaxed
// load) when the registry is disabled.
class ScopedOpTimer {
 public:
  ScopedOpTimer(std::string_view codec, OpKind op)
      : enabled_(MetricsRegistry::Global().Enabled()) {
    if (enabled_) {
      codec_ = codec;
      op_ = op;
      start_ns_ = NowNs();
    }
  }
  ~ScopedOpTimer() {
    if (enabled_) {
      MetricsRegistry::Global().RecordOpLatency(codec_, op_,
                                                NowNs() - start_ns_);
    }
  }

  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  bool enabled_;
  std::string_view codec_;
  OpKind op_ = OpKind::kIntersect;
  uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace intcomp

#endif  // INTCOMP_OBS_METRICS_H_

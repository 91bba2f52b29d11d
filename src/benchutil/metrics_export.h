// Shared --metrics-out plumbing for the bench binaries.
//
// Every bench constructs one BenchMetrics right after parsing flags:
//
//   Flags flags(argc, argv);
//   BenchMetrics metrics("tab1_intersection", flags);
//
// Flags it consumes (all optional):
//   --metrics-out=PATH     enable the global MetricsRegistry and write the
//                          collected metrics to PATH on exit
//   --metrics-format=FMT   "jsonl" (default) or "prom"
//   --trace-sample=N       enable tracing at 1/N root sampling (0 = off)
//   --trace-seed=S         sampling PRNG seed (default 42, deterministic)
//   --trace-out=PATH       write the sampled spans as a Chrome trace-event
//                          JSON file on exit (load in chrome://tracing or
//                          Perfetto); requires --trace-sample
//
// With --metrics-out, the host-speed probe (benchutil/host_probe.h) is
// recorded right after construction and again before export, as the
// "host"/"host_probe" key (reported by perf_check.py diff, never gated).
//
// The export happens in the destructor, after the bench body ran; a failed
// write is loud (non-zero exit), so run_benches.sh --metrics-dir can trust
// that a missing artifact means the binary never constructed BenchMetrics.

#ifndef INTCOMP_BENCHUTIL_METRICS_EXPORT_H_
#define INTCOMP_BENCHUTIL_METRICS_EXPORT_H_

#include <string>

#include "benchutil/flags.h"

namespace intcomp {

class BenchMetrics {
 public:
  BenchMetrics(std::string bench_name, const Flags& flags);
  ~BenchMetrics();

  BenchMetrics(const BenchMetrics&) = delete;
  BenchMetrics& operator=(const BenchMetrics&) = delete;

  bool enabled() const { return !out_path_.empty(); }

 private:
  std::string bench_name_;
  std::string out_path_;
  std::string format_;
  std::string trace_out_path_;
};

}  // namespace intcomp

#endif  // INTCOMP_BENCHUTIL_METRICS_EXPORT_H_

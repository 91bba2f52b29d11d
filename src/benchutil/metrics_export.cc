#include "benchutil/metrics_export.h"

#include <cstdio>
#include <cstdlib>

#include "benchutil/host_probe.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace intcomp {
namespace {

// Probe samples taken before and after the bench body (~2 ms each side).
constexpr int kHostProbeSamples = 32;

}  // namespace

BenchMetrics::BenchMetrics(std::string bench_name, const Flags& flags)
    : bench_name_(std::move(bench_name)),
      out_path_(flags.GetString("metrics-out", "")),
      format_(flags.GetString("metrics-format", "jsonl")),
      trace_out_path_(flags.GetString("trace-out", "")) {
  const uint32_t sample =
      static_cast<uint32_t>(flags.GetInt("trace-sample", 0));
  if (sample != 0) {
    obs::SetTraceSeed(
        static_cast<uint64_t>(flags.GetInt("trace-seed", 42)));
    obs::SetTraceSampling(sample);
  } else if (!trace_out_path_.empty()) {
    std::fprintf(stderr, "--trace-out requires --trace-sample=N (N > 0)\n");
    std::exit(2);
  }
  if (!enabled()) return;
  if (format_ != "jsonl" && format_ != "prom") {
    std::fprintf(stderr, "bad --metrics-format=%s (want jsonl|prom)\n",
                 format_.c_str());
    std::exit(2);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.SetEnabled(true);
  RecordHostProbe(kHostProbeSamples);
}

BenchMetrics::~BenchMetrics() {
  obs::SetTraceSampling(0);
  if (!trace_out_path_.empty()) {
    // Sampling is off and the bench body has joined its workers, so the ring
    // is quiescent — SnapshotSpans' reader contract holds.
    if (!obs::WriteChromeTrace(trace_out_path_, obs::SnapshotSpans())) {
      std::fprintf(stderr, "error: failed to write trace to %s\n",
                   trace_out_path_.c_str());
      std::exit(1);
    }
    std::printf("# trace written to %s (chrome trace-event)\n",
                trace_out_path_.c_str());
  }
  if (!enabled()) return;
  RecordHostProbe(kHostProbeSamples);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.SetEnabled(false);
  if (!reg.ExportToFile(out_path_, format_, bench_name_)) {
    std::fprintf(stderr, "error: failed to write metrics to %s\n",
                 out_path_.c_str());
    std::exit(1);
  }
  std::printf("# metrics written to %s (%s)\n", out_path_.c_str(),
              format_.c_str());
}

}  // namespace intcomp

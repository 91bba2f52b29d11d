// Host-speed probe: a fixed unit of work that no codec, engine or service
// code runs — a dependent scalar integer chain (core clock) plus a memcpy
// sweep over a buffer the size of a typical L2 (load/store bandwidth). A
// change to the code under test cannot move it, unlike a base taken from
// the bench's own latencies.
//
// tools/perf_check.py diff prints its mean next to the baseline's, so a
// gate's result can be read against the host's speed at the time. It is
// not the gates' calibration base: sampled only before and after the bench
// body, it misses the contention that raises the gated tails.

#ifndef INTCOMP_BENCHUTIL_HOST_PROBE_H_
#define INTCOMP_BENCHUTIL_HOST_PROBE_H_

#include <cstdint>
#include <string_view>

namespace intcomp {

// Codec label of the probe's op_latency key ("host"/"host_probe").
inline constexpr std::string_view kHostProbeCodec = "host";

// Wall time in ns of one probe unit, the fastest of three back-to-back
// runs (a preempted run never survives the min).
uint64_t MeasureHostProbeNs();

// Records `samples` MeasureHostProbeNs values into the global registry's
// (kHostProbeCodec, OpKind::kHostProbe) histogram. BenchMetrics calls it
// before and after the bench body.
void RecordHostProbe(int samples);

}  // namespace intcomp

#endif  // INTCOMP_BENCHUTIL_HOST_PROBE_H_

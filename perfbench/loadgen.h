// Open-loop request generator and the capacity search built on it.
//
// Arrivals are a seeded Poisson process fixed before a phase starts, so a
// slow system cannot slow the offered load. Each request is charged from its
// scheduled send time. A stream that is idle when a request falls due
// sleeps until then; how late it wakes is the generator's own slip, which is
// kept apart from the wait a busy stream imposes (the system's backlog).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/prng.h"
#include "util.h"

namespace perfbench {

struct Outcome {
  uint32_t plan = 0;
  uint8_t cls = 0;
  bool ok = false;
  bool idle_before = false;  // the stream was idle when the request fell due
  double latency_ms = 0;     // completion minus scheduled send
  double slip_ms = 0;        // send minus scheduled send, if idle_before
  uint64_t rows = 0, hash = 0;
  uint64_t lo = 0, hi = 0;   // write-state window seen by the request
};

// Evaluates one request for stream `stream`; returns false on any error.
// May fill the window fields of *out.
using Sender = std::function<bool(size_t stream, uint32_t plan,
                                  std::vector<uint32_t>* rows, Outcome* out)>;
// Draws the next request's plan id (and class) from the traffic mix.
using Picker = std::function<uint32_t(intcomp::Prng* rng, uint8_t* cls)>;

struct PhaseConfig {
  size_t streams = 2;
  double rate = 0;      // requests/s; <= 0 runs closed-loop back to back
  double seconds = 1;
  uint64_t seed = 1;
  Tracer* tracer = nullptr;
  const char* call_span = "net.query";
};

// Sleeps until steady-clock time `due_ns`.
void WaitUntil(int64_t due_ns);

std::vector<Outcome> RunPhase(const PhaseConfig& config, const Picker& pick,
                              const Sender& send);

using Sink = std::function<void(const std::vector<Outcome>&)>;

// Highest Poisson rate whose steps meet `limit_ms` at p99 with no growing
// backlog: a closed-loop phase of `min_step_seconds` measures the
// saturation rate X, then a bisection in log-rate over [0.6 X, 1.4 X]. Each
// step lasts long enough at its rate for at least ten samples to lie beyond
// its p99, and at least `min_step_seconds`. Every step's outcomes are
// handed to `sink` as the step ends.
struct CapacityConfig {
  PhaseConfig phase;  // streams and seed; rate and seconds are set here
  double limit_ms = 10;
  double min_step_seconds = 1;
};
struct Capacity {
  double qps = 0;
  int undecided = 0;  // steps with fewer than ten samples beyond their p99
};
Capacity FindCapacity(const CapacityConfig& config, const Picker& pick,
                      const Sender& send, const Sink& sink);

// A step passes when every request succeeded, its p99 latency is within the
// limit, and its mean latency rose by at most a quarter of the limit from
// the first quarter of the step to the last (no growing backlog). A step
// with fewer than ten samples beyond its p99 is undecided.
enum class Verdict { kPass, kFail, kUndecided };
Verdict JudgeStep(const std::vector<Outcome>& outs, double limit_ms, Pct* p99);

// Tracing's cost at one fixed rate: `pairs` untraced and traced phases of
// `phase` alternate, so host drift moves both alike. Returns the median
// latency of the traced phases over that of the untraced ones, minus one.
// `phase.tracer` is left disabled.
double TraceOverhead(PhaseConfig phase, int pairs, const Picker& pick,
                     const Sender& send, const Sink& sink);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

// Shared plumbing for the repository benchmark: clocks, exact percentiles,
// the result report, in-memory spans, and host context measurements.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// Exact nearest-rank percentile over raw samples (no histogram buckets).
struct Pct {
  double value = 0;
  size_t n = 0;       // samples the percentile was taken over
  size_t beyond = 0;  // samples strictly above the percentile's rank
};
Pct Percentile(std::vector<double> samples, double q);
// The percentile of each of `windows` consecutive slices of `samples`, and
// their median: one burst of host noise moves one slice, not the result.
// n and beyond are the smallest slice's.
struct WindowedPct {
  Pct median;
  std::vector<double> slices;
};
WindowedPct WindowedPercentile(const std::vector<double>& samples, double q,
                               int windows);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// Order-dependent 64-bit digest of a row set; the oracle and every response
// are compared by (row count, digest).
uint64_t HashRows(const std::vector<uint32_t>& rows);

// The run's verdict and metrics. Every check prints one line; a failed
// check makes the run incorrect, and the command exits non-zero.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Prints a metric line without putting the value in the result.
  void Info(const std::string& name, double value, const std::string& unit);
  // Prints "check <what>: ok|FAIL (<detail>)" and records failures.
  bool Check(bool ok, const std::string& what, const std::string& detail);
  // Range check on a census value: lo <= value <= hi.
  bool Range(const std::string& what, double value, double lo, double hi);
  // Prints a percentile with its sample count and tail size, and checks
  // that at least ten samples lie beyond it.
  void PrintPct(const std::string& name, const Pct& p);
  void PrintPct(const std::string& name, const WindowedPct& p);
  void CountAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  uint64_t failed() const { return failed_; }
  std::string ResultJson() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// In-memory span recorder. A span has a name, start, end, parent and the
// request it belongs to; nesting on one thread is tracked through a
// thread-local parent. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t id, parent, request;
    int64_t start_ns, end_ns;
  };
  // Starts disabled.
  Tracer() = default;
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NewId();
  void Add(const Span& span);
  // Records an already-timed interval as a child of `parent` (0 = root).
  uint64_t AddInterval(const char* name, uint64_t parent, uint64_t request,
                       int64_t start_ns, int64_t end_ns);
  std::vector<Span> Spans() const;
  // Prints, per span name, the span count, total duration and total self
  // time: duration minus the part of the interval its children cover.
  void PrintSelfTimes() const;
  // Writes every span as Chrome trace-event JSON.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// A span from construction to destruction, nested under the thread's open
// ScopedSpan. It belongs to no request.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_ = 0, parent_ = 0;
  int64_t start_;
};

// Aggregate busy-loop iterations of nproc threads over those of one thread
// on the same fixed interval: how much parallel capacity the host gives.
// *single_rate receives the one-thread rate in M iterations/s.
double HostParallelSpeedup(double* single_rate);
int HostCpus();
// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_

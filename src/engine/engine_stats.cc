#include "engine/engine_stats.h"

#include <cstdio>

namespace intcomp {

WorkerCounters& WorkerCounters::operator+=(const WorkerCounters& o) {
  queries += o.queries;
  result_ints += o.result_ints;
  steals += o.steals;
  busy_ns += o.busy_ns;
  idle_ns += o.idle_ns;
  ok += o.ok;
  rejected += o.rejected;
  timed_out += o.timed_out;
  cancelled += o.cancelled;
  failed += o.failed;
  kernels += o.kernels;
  return *this;
}

WorkerCounters BatchReport::Totals() const {
  WorkerCounters t;
  for (const WorkerCounters& w : per_worker) t += w;
  return t;
}

double BatchReport::BusyFraction() const {
  const WorkerCounters t = Totals();
  const uint64_t denom = t.busy_ns + t.idle_ns;
  return denom == 0 ? 0.0 : static_cast<double>(t.busy_ns) / denom;
}

std::string BatchReport::ToString() const {
  std::string s;
  char line[160];
  std::snprintf(line, sizeof(line), "%-8s %10s %14s %8s %10s %10s\n", "worker",
                "queries", "result_ints", "steals", "busy_ms", "idle_ms");
  s += line;
  auto row = [&](const char* name, const WorkerCounters& c) {
    std::snprintf(line, sizeof(line), "%-8s %10llu %14llu %8llu %10.2f %10.2f\n",
                  name, static_cast<unsigned long long>(c.queries),
                  static_cast<unsigned long long>(c.result_ints),
                  static_cast<unsigned long long>(c.steals),
                  static_cast<double>(c.busy_ns) / 1e6,
                  static_cast<double>(c.idle_ns) / 1e6);
    s += line;
  };
  for (size_t w = 0; w < per_worker.size(); ++w) {
    char name[24];
    std::snprintf(name, sizeof(name), "w%zu", w);
    row(name, per_worker[w]);
  }
  row("total", Totals());
  std::snprintf(line, sizeof(line), "wall %.2f ms, busy fraction %.2f\n",
                wall_ms, BusyFraction());
  s += line;
  const WorkerCounters t = Totals();
  if (t.rejected + t.timed_out + t.cancelled + t.failed > 0) {
    std::snprintf(line, sizeof(line),
                  "outcomes: %llu ok, %llu rejected, %llu timed out, "
                  "%llu cancelled, %llu failed\n",
                  static_cast<unsigned long long>(t.ok),
                  static_cast<unsigned long long>(t.rejected),
                  static_cast<unsigned long long>(t.timed_out),
                  static_cast<unsigned long long>(t.cancelled),
                  static_cast<unsigned long long>(t.failed));
    s += line;
  }
  if (t.kernels.Total() > 0) {
    const KernelCounters& k = t.kernels;
    std::snprintf(line, sizeof(line),
                  "kernels: merge %llu scalar / %llu simd, gallop %llu scalar"
                  " / %llu simd, union %llu scalar / %llu simd,"
                  " block probes %llu\n",
                  static_cast<unsigned long long>(k.scalar_merge),
                  static_cast<unsigned long long>(k.simd_merge),
                  static_cast<unsigned long long>(k.scalar_gallop),
                  static_cast<unsigned long long>(k.simd_gallop),
                  static_cast<unsigned long long>(k.scalar_union),
                  static_cast<unsigned long long>(k.simd_union),
                  static_cast<unsigned long long>(k.block_probes));
    s += line;
  }
  return s;
}

}  // namespace intcomp

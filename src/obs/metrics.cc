#include "obs/metrics.h"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>

#include "obs/json.h"
#include "obs/trace.h"

namespace intcomp {
namespace obs {

namespace {

void AppendQuantiles(const LatencyHistogram& h, std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"count\":%llu,\"mean_ns\":%.1f,\"p50_ns\":%llu,"
                "\"p90_ns\":%llu,\"p99_ns\":%llu,\"p999_ns\":%llu",
                static_cast<unsigned long long>(h.Count()), h.Mean(),
                static_cast<unsigned long long>(h.P50()),
                static_cast<unsigned long long>(h.P90()),
                static_cast<unsigned long long>(h.P99()),
                static_cast<unsigned long long>(h.P999()));
  *out += buf;
}

}  // namespace

std::string_view OpKindName(OpKind op) {
  switch (op) {
    case OpKind::kIntersect: return "intersect";
    case OpKind::kUnion: return "union";
    case OpKind::kDecode: return "decode";
    case OpKind::kDeserializeChecked: return "deserialize_checked";
    case OpKind::kQuery: return "query";
    case OpKind::kServiceQuery: return "service_query";
    case OpKind::kStorageOpen: return "storage_open";
    case OpKind::kWalAppend: return "wal_append";
    case OpKind::kCompaction: return "compaction";
    case OpKind::kPlannerBuild: return "planner_build";
    case OpKind::kPlannerQuery: return "planner_query";
    case OpKind::kNetRequest: return "net_request";
    case OpKind::kHostProbe: return "host_probe";
  }
  return "unknown";
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry();  // intentionally leaked
  return *r;
}

LatencyHistogram* MetricsRegistry::OpLatency(std::string_view codec,
                                             OpKind op) {
  const size_t oi = static_cast<size_t>(op);
  {
    std::shared_lock lock(mu_);
    auto it = latency_.find(codec);
    if (it != latency_.end()) return &(*it->second)[oi];
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] =
      latency_.try_emplace(std::string(codec), nullptr);
  if (inserted) it->second = std::make_unique<OpHistograms>();
  return &(*it->second)[oi];
}

void MetricsRegistry::AddCounter(std::string_view name, uint64_t delta) {
  {
    std::shared_lock lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) {
      it->second->fetch_add(delta, std::memory_order_relaxed);
      return;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = counters_.try_emplace(std::string(name), nullptr);
  if (inserted) it->second = std::make_unique<std::atomic<uint64_t>>(0);
  it->second->fetch_add(delta, std::memory_order_relaxed);
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::shared_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  return it->second->load(std::memory_order_relaxed);
}

void MetricsRegistry::SetGauge(std::string_view name, uint64_t value) {
  {
    std::shared_lock lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) {
      it->second->store(value, std::memory_order_relaxed);
      return;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(std::string(name), nullptr);
  if (inserted) it->second = std::make_unique<std::atomic<uint64_t>>(0);
  it->second->store(value, std::memory_order_relaxed);
}

uint64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  std::shared_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) return 0;
  return it->second->load(std::memory_order_relaxed);
}

void MetricsRegistry::RecordKernelCounters(std::string_view codec,
                                           const KernelCounters& k) {
  const std::pair<const char*, uint64_t> fields[] = {
      {"scalar_merge", k.scalar_merge},   {"simd_merge", k.simd_merge},
      {"scalar_gallop", k.scalar_gallop}, {"simd_gallop", k.simd_gallop},
      {"scalar_union", k.scalar_union},   {"simd_union", k.simd_union},
      {"block_probes", k.block_probes},
  };
  std::string name;
  for (const auto& [field, value] : fields) {
    if (value == 0) continue;
    name.assign("kernel.");
    name.append(codec);
    name.push_back('.');
    name.append(field);
    AddCounter(name, value);
  }
}

std::string MetricsRegistry::ExportJsonl(std::string_view bench_name) const {
  std::string out;
  {
    char buf[64];
    out += "{\"metric\":\"meta\",\"bench\":\"";
    out += JsonEscape(bench_name);
    std::snprintf(buf, sizeof(buf), "\",\"trace_sampling\":%u}\n",
                  GetTraceSampling());
    out += buf;
  }
  std::shared_lock lock(mu_);
  for (const auto& [codec, hists] : latency_) {
    for (size_t oi = 0; oi < kNumOpKinds; ++oi) {
      const LatencyHistogram& h = (*hists)[oi];
      if (h.Count() == 0) continue;
      out += "{\"metric\":\"op_latency\",\"codec\":\"";
      out += JsonEscape(codec);
      out += "\",\"op\":\"";
      out += OpKindName(static_cast<OpKind>(oi));
      out += "\",";
      AppendQuantiles(h, &out);
      out += "}\n";
    }
  }
  for (const auto& [name, value] : counters_) {
    char buf[32];
    out += "{\"metric\":\"counter\",\"name\":\"";
    out += JsonEscape(name);
    std::snprintf(buf, sizeof(buf), "\",\"value\":%llu}\n",
                  static_cast<unsigned long long>(
                      value->load(std::memory_order_relaxed)));
    out += buf;
  }
  for (const auto& [name, value] : gauges_) {
    char buf[32];
    out += "{\"metric\":\"gauge\",\"name\":\"";
    out += JsonEscape(name);
    std::snprintf(buf, sizeof(buf), "\",\"value\":%llu}\n",
                  static_cast<unsigned long long>(
                      value->load(std::memory_order_relaxed)));
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::ExportPrometheus() const {
  std::string out;
  out +=
      "# HELP intcomp_op_latency_ns Per-codec operation latency quantiles.\n"
      "# TYPE intcomp_op_latency_ns summary\n";
  std::shared_lock lock(mu_);
  char buf[256];
  for (const auto& [codec, hists] : latency_) {
    for (size_t oi = 0; oi < kNumOpKinds; ++oi) {
      const LatencyHistogram& h = (*hists)[oi];
      if (h.Count() == 0) continue;
      const std::string_view op = OpKindName(static_cast<OpKind>(oi));
      const std::pair<const char*, uint64_t> quantiles[] = {
          {"0.5", h.P50()}, {"0.9", h.P90()},
          {"0.99", h.P99()}, {"0.999", h.P999()},
      };
      for (const auto& [q, v] : quantiles) {
        std::snprintf(buf, sizeof(buf),
                      "intcomp_op_latency_ns{codec=\"%s\",op=\"%.*s\","
                      "quantile=\"%s\"} %llu\n",
                      codec.c_str(), static_cast<int>(op.size()), op.data(),
                      q, static_cast<unsigned long long>(v));
        out += buf;
      }
      std::snprintf(buf, sizeof(buf),
                    "intcomp_op_latency_ns_sum{codec=\"%s\",op=\"%.*s\"} "
                    "%llu\n"
                    "intcomp_op_latency_ns_count{codec=\"%s\",op=\"%.*s\"} "
                    "%llu\n",
                    codec.c_str(), static_cast<int>(op.size()), op.data(),
                    static_cast<unsigned long long>(h.Sum()), codec.c_str(),
                    static_cast<int>(op.size()), op.data(),
                    static_cast<unsigned long long>(h.Count()));
      out += buf;
    }
  }
  out +=
      "# HELP intcomp_counter Named event counters.\n"
      "# TYPE intcomp_counter counter\n";
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof(buf), "intcomp_counter{name=\"%s\"} %llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      value->load(std::memory_order_relaxed)));
    out += buf;
  }
  out +=
      "# HELP intcomp_gauge Point-in-time values (occupancy, depths).\n"
      "# TYPE intcomp_gauge gauge\n";
  for (const auto& [name, value] : gauges_) {
    std::snprintf(buf, sizeof(buf), "intcomp_gauge{name=\"%s\"} %llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      value->load(std::memory_order_relaxed)));
    out += buf;
  }
  return out;
}

bool MetricsRegistry::ExportToFile(const std::string& path,
                                   std::string_view format,
                                   std::string_view bench_name) const {
  std::string body;
  if (format == "jsonl") {
    body = ExportJsonl(bench_name);
  } else if (format == "prom") {
    body = ExportPrometheus();
  } else {
    return false;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out.flush());
}

void MetricsRegistry::Reset() {
  std::unique_lock lock(mu_);
  latency_.clear();
  counters_.clear();
  gauges_.clear();
}

}  // namespace obs
}  // namespace intcomp

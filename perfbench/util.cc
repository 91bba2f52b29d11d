#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

namespace perfbench {

Pct Percentile(std::vector<double> samples, double q) {
  Pct p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<size_t>(rank, 1, p.n);
  p.value = samples[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

WindowedPct WindowedPercentile(const std::vector<double>& samples, double q,
                               int windows) {
  WindowedPct w;
  w.median.n = w.median.beyond = samples.size();
  for (int i = 0; i < windows; ++i) {
    const std::vector<double> slice(samples.begin() + samples.size() * i / windows,
                                    samples.begin() + samples.size() * (i + 1) / windows);
    const Pct p = Percentile(slice, q);
    w.slices.push_back(p.value);
    w.median.n = std::min(w.median.n, p.n);
    w.median.beyond = std::min(w.median.beyond, p.beyond);
  }
  w.median.value = Median(w.slices);
  return w;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

uint64_t HashRows(const std::vector<uint32_t>& rows) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ rows.size();
  for (uint32_t r : rows) {
    h ^= r + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Info(name, value, unit);
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("metric %-40s %.6g %s\n", name.c_str(), value, unit.c_str());
}

bool Report::Check(bool ok, const std::string& what,
                   const std::string& detail) {
  std::printf("check %s: %s (%s)\n", what.c_str(), ok ? "ok" : "FAIL",
              detail.c_str());
  if (!ok) correct_ = false;
  return ok;
}

bool Report::Range(const std::string& what, double value, double lo,
                   double hi) {
  char detail[160];
  std::snprintf(detail, sizeof(detail), "%.4g in [%.4g, %.4g]", value, lo, hi);
  return Check(value >= lo && value <= hi, what, detail);
}

void Report::PrintPct(const std::string& name, const Pct& p) {
  std::printf("pct %-24s %.4f n=%zu beyond=%zu\n", name.c_str(), p.value, p.n,
              p.beyond);
  char detail[96];
  std::snprintf(detail, sizeof(detail), "%zu samples beyond, need >= 10",
                p.beyond);
  Check(p.beyond >= 10, name + " tail sample", detail);
}

void Report::PrintPct(const std::string& name, const WindowedPct& p) {
  std::printf("windows %-20s", name.c_str());
  for (double v : p.slices) std::printf(" %.4f", v);
  std::printf("\n");
  PrintPct(name, p.median);
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].second.first);
    if (i) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

namespace {
thread_local uint64_t t_parent = 0;
}  // namespace

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

uint64_t Tracer::AddInterval(const char* name, uint64_t parent,
                             uint64_t request, int64_t start_ns,
                             int64_t end_ns) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back({name, id, parent, request, start_ns, end_ns});
  return id;
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::PrintSelfTimes() const {
  const std::vector<Span> spans = Spans();
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Totals {
    size_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_ms += (s.end_ns - s.start_ns) / 1e6;
    t.self_ms += (s.end_ns - s.start_ns - covered) / 1e6;
  }
  for (const auto& [name, t] : by_name) {
    std::printf("span %-32s count=%zu total_ms=%.3f self_ms=%.3f\n",
                name.c_str(), t.count, t.total_ms, t.self_ms);
  }
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = Spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}\n",
                 i ? "," : "", s.name,
                 static_cast<unsigned long long>(s.request),
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name), start_(NowNs()) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    id_ = tracer_->NewId();
    parent_ = t_parent;
    t_parent = id_;
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  t_parent = parent_;
  tracer_->Add({name_, id_, parent_, 0, start_, NowNs()});
}

int HostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double HostParallelSpeedup(double* single_rate) {
  const auto spin = [](int64_t until_ns) {
    uint64_t iters = 0, x = 88172645463325252ull;
    while (NowNs() < until_ns) {
      for (int i = 0; i < 4096; ++i) {  // xorshift: pure ALU work
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      iters += 4096 + (x & 1);
    }
    return iters;
  };
  constexpr int64_t kIntervalNs = 150'000'000;
  const uint64_t one = spin(NowNs() + kIntervalNs);
  *single_rate = one / (kIntervalNs / 1e3);
  const int n = HostCpus();
  std::vector<uint64_t> counts(n);
  std::vector<std::thread> threads;
  const int64_t until = NowNs() + kIntervalNs;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] { counts[t] = spin(until); });
  }
  uint64_t total = 0;
  for (int t = 0; t < n; ++t) {
    threads[t].join();
    total += counts[t];
  }
  return one ? static_cast<double>(total) / static_cast<double>(one) : 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench

// serve_hot and serve_cold: open-loop ICP1 traffic over loopback against a
// Planner-codec container served through MappedIndex, as tools/serve does.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "core/registry.h"
#include "loadgen.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "service/sharded_index.h"
#include "storage/index_writer.h"
#include "storage/live_index.h"
#include "storage/mapped_index.h"
#include "workloads.h"
#include "writer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using intcomp::QueryPlan;

// Index shared by both serving workloads: 2^18 rows, 256 lists in three
// density bands, 4 range shards, served by a 2-worker pool to 2 client
// connections (the host has 4 vCPUs).
constexpr uint64_t kRows = 1u << 18;
constexpr size_t kLists = 256;
constexpr size_t kShards = 4;
constexpr size_t kPoolThreads = 2;
constexpr size_t kStreams = 2;
constexpr int kSetupReps = 9;

struct ServeSpec {
  const char* name;
  size_t light_plans, heavy_plans;
  double heavy_share;     // share of requests drawn from the heavy pool
  bool selective;         // heavy plans narrowed to a small result
  double zipf_skew;       // popularity within a pool; 0 = uniform
  double fixed_qps;       // offered rate of the latency phase
  double p99_limit_ms;    // capacity search limit
  double hit_lo, hit_hi;  // census: cache hit share of the latency phase
  double rows_lo, rows_hi;  // census: mean rows per result
};

constexpr ServeSpec kHot{"serve_hot", 240, 60, 0.2, true, 1.0, 400, 15,
                         0.9, 1.0, 10, 3000};
constexpr ServeSpec kCold{"serve_cold", 24000, 16000, 0.3, false, 0.0, 200, 40,
                          0.0, 0.05, 1000, 100000};

// Capacity steps, and the closed-loop phase that sets their bracket, last
// at least this long (steps last longer at low rates; see FindCapacity).
constexpr double kMinStepSeconds = 1.0;
// Seconds of the run given to each phase, as shares of --seconds. The
// capacity search is sized by its steps instead. The traced run adds the
// trace-overhead pairs, the no-op sampler phase and the write probe.
constexpr double kFixedShare = 0.5;
constexpr int kOverheadPairs = 5;
constexpr double kOverheadShare = 0.02, kSamplerShare = 0.1, kWriteShare = 0.2;
// Traced-run write probe: a durable LiveIndex over the same lists, fsync on
// every WAL record.
constexpr double kProbeWriteQps = 400;
constexpr size_t kProbeWriteBatch = 16;
constexpr uint64_t kProbeCompactRows = 4000;
// Fixed-rate medians are the median over this many consecutive windows of
// the phase, so a burst of host noise moves a few windows, not the result.
// Tail percentiles are taken over the whole phase.
constexpr int kWindows = 10;

struct Serving {
  std::unique_ptr<intcomp::storage::MappedIndex> mapped;
  std::unique_ptr<intcomp::IndexService> service;
  std::unique_ptr<intcomp::net::QueryServer> server;
  std::vector<std::unique_ptr<intcomp::net::QueryClient>> clients;

  // Tears down users before what they borrow.
  void Reset() {
    clients.clear();
    server.reset();
    service.reset();
    mapped.reset();
  }
};

struct SetupTimes {
  std::vector<double> total_s, build_s, write_s, open_ms, first_ms, warm_s;
};

// Build, write, open and start serving (the program's set-up, setup_s),
// then warm up: the first query, and enough traffic to admit the hot plans
// to the cache or materialize every list. Warm-up is query traffic whose
// time follows the host's thread scheduling, so it is timed apart
// (index.warm_s) and kept out of setup_s.
bool SetUp(const ServeSpec& spec, const Dataset& data,
           const std::vector<std::string>& texts, const std::string& path,
           intcomp::ThreadPool* pool, Tracer* tracer, Serving* s,
           SetupTimes* times, Report* report) {
  s->Reset();
  const intcomp::Codec* planner = intcomp::FindCodec("Planner");
  // The built index is freed once written: the served path holds only the
  // mapped container, as tools/serve does.
  const int64_t t0 = NowNs();
  int64_t t1 = 0;
  intcomp::Status st;
  {
    std::unique_ptr<intcomp::ShardedIndex> built;
    {
      ScopedSpan span(tracer, "index.build");
      built = std::make_unique<intcomp::ShardedIndex>(
          intcomp::ShardedIndex::Build(*planner, data.lists, data.num_rows, kShards));
    }
    t1 = NowNs();
    ScopedSpan span(tracer, "storage.write_image");
    st = intcomp::storage::WriteIndexFile(path, *built);
  }
  if (!report->Check(st.ok(), "write container", st.ToString())) return false;
  const int64_t t2 = NowNs();
  {
    ScopedSpan span(tracer, "storage.open");
    auto opened = intcomp::storage::MappedIndex::Open(
        path, {intcomp::storage::ValidateMode::kLazy});
    if (!report->Check(opened.ok(), "open container", opened.status().ToString())) {
      return false;
    }
    s->mapped = std::move(opened.value());
  }
  const int64_t t3 = NowNs();
  s->service = std::make_unique<intcomp::IndexService>(s->mapped.get(), pool,
                                                       intcomp::IndexServiceOptions{});
  intcomp::net::ServerOptions options;
  options.max_connections = kStreams + 2;
  s->server = std::make_unique<intcomp::net::QueryServer>(s->service.get(), options);
  st = s->server->Start();
  if (!report->Check(st.ok(), "server start", st.ToString())) return false;
  for (size_t c = 0; c < kStreams; ++c) {
    s->clients.push_back(std::make_unique<intcomp::net::QueryClient>());
    st = s->clients.back()->Connect("127.0.0.1", s->server->port());
    if (!report->Check(st.ok(), "client connect", st.ToString())) return false;
  }
  std::vector<uint32_t> rows;
  const int64_t t4 = NowNs();
  {
    ScopedSpan span(tracer, "storage.first_query");
    st = s->clients[0]->Query(texts[0], 0, &rows);
  }
  const int64_t t5 = NowNs();
  bool warm_ok = st.ok();
  if (spec.zipf_skew > 0) {
    // Two touches per plan: the doorkeeper admits on the second.
    for (int round = 0; round < 2; ++round) {
      for (const std::string& t : texts) {
        warm_ok = s->clients[0]->Query(t, 0, &rows).ok() && warm_ok;
      }
    }
  } else {
    // Materialize every list of every shard once.
    for (size_t l = 0; l < kLists; ++l) {
      warm_ok = s->clients[0]->Query(std::to_string(l), 0, &rows).ok() && warm_ok;
    }
  }
  const int64_t t6 = NowNs();
  report->Check(warm_ok, "warm-up queries", spec.name);
  times->build_s.push_back((t1 - t0) / 1e9);
  times->write_s.push_back((t2 - t1) / 1e9);
  times->open_ms.push_back((t3 - t2) / 1e6);
  times->first_ms.push_back((t5 - t4) / 1e6);
  times->total_s.push_back((t4 - t0) / 1e9);
  times->warm_s.push_back((t6 - t4) / 1e9);
  return true;
}

void PrintCensus(const ServeSpec& spec, const std::vector<Outcome>& outs,
                 const intcomp::ServiceStats& before,
                 const intcomp::ServiceStats& after, Report* report) {
  const double hits = after.cache.hits - before.cache.hits;
  const double misses = after.cache.misses - before.cache.misses;
  const double probes = std::max(hits + misses, 1.0);
  double heavy = 0, rows = 0;
  for (const Outcome& o : outs) {
    heavy += o.cls == kHeavy;
    rows += o.rows;
  }
  const double n = std::max<double>(outs.size(), 1);
  std::printf("census %s requests=%zu hit_share=%.4f heavy_share=%.4f "
              "mean_rows=%.1f\n",
              spec.name, outs.size(), hits / probes, heavy / n, rows / n);
  report->Range("census cache hit share", hits / probes, spec.hit_lo, spec.hit_hi);
  report->Range("census heavy plan share", heavy / n, spec.heavy_share - 0.05,
                spec.heavy_share + 0.05);
  report->Range("census mean rows per result", rows / n, spec.rows_lo,
                spec.rows_hi);
}

// Write-side layers on the serving workloads' lists, for the traced run only
// and after every serving measurement: a durable LiveIndex built from the
// same lists takes fixed-rate writes with compaction. The untraced run
// holds no LiveIndex, so its rss_mb counts only the served path.
void ProbeWrites(const Dataset& data, std::span<const QueryPlan> plans,
                 const std::string& dir, intcomp::ThreadPool* pool,
                 double seconds, uint64_t seed, Tracer* tracer, Report* report) {
  fs::create_directories(dir);
  std::unique_ptr<intcomp::storage::LiveIndex> live;
  {
    const intcomp::ShardedIndex base = intcomp::ShardedIndex::Build(
        *intcomp::FindCodec("Planner"), data.lists, data.num_rows, kShards);
    auto created = intcomp::storage::LiveIndex::Create(dir, base);
    if (!report->Check(created.ok(), "live index create",
                       created.status().ToString())) {
      return;
    }
    live = std::move(created.value());
  }
  WriterConfig wc;
  wc.rate = kProbeWriteQps;
  wc.batch = kProbeWriteBatch;
  wc.compact_rows = kProbeCompactRows;
  wc.seed = seed;
  Writer writer(live.get(), pool, data.lists, data.num_rows, wc, tracer);
  writer.SetRecording(true);
  writer.Start();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  writer.Stop();
  report->CountAttempts(writer.Attempted(), writer.Failures());
  report->Check(writer.Failures() == 0, "probe writes and compactions succeed",
                std::to_string(writer.Failures()) + " failed");
  const Pct w50 = Percentile(writer.LatenciesMs(), 0.5);
  const Pct w99 = Percentile(writer.LatenciesMs(), 0.99);
  report->PrintPct("write_p50_ms", w50);
  report->PrintPct("write_p99_ms", w99);
  report->Metric("e2e.write_p50_ms", w50.value, "ms");
  report->Metric("e2e.write_p99_ms", w99.value, "ms");
  report->Metric("storage.compact_s", Median(writer.CompactSeconds()), "s");
  uint64_t rows_written = 0;
  for (const WriteRecord& w : writer.Log()) rows_written += w.rows.size();
  ProbeLiveIndex(live.get(), pool, plans, rows_written, tracer, report);
  const intcomp::Status st = live->Close();
  report->Check(st.ok(), "live close", st.ToString());
}

}  // namespace

void RunServe(const RunArgs& args, Report* report) {
  const ServeSpec& spec = args.workload == "serve_hot" ? kHot : kCold;
  Tracer tracer;  // switched on for the traced phases only
  const double S = args.seconds;

  // Inputs: everything below derives from --seed.
  const Dataset data = MakeDataset(args.seed, kRows, kLists);
  intcomp::Prng plan_rng(args.seed ^ 0x5eed);
  const PlanPool light = MakePlans(kLight, spec.light_plans, kLists, &plan_rng);
  const PlanPool heavy =
      MakePlans(kHeavy, spec.heavy_plans, kLists, &plan_rng, spec.selective);
  std::vector<std::string> texts = light.texts;
  texts.insert(texts.end(), heavy.texts.begin(), heavy.texts.end());
  const uint32_t n_light = static_cast<uint32_t>(spec.light_plans);
  const Zipf light_pop(spec.light_plans, spec.zipf_skew);
  const Zipf heavy_pop(spec.heavy_plans, spec.zipf_skew);
  const Picker pick = [&](intcomp::Prng* rng, uint8_t* cls) -> uint32_t {
    *cls = rng->NextDouble() < spec.heavy_share ? kHeavy : kLight;
    if (*cls == kLight) return static_cast<uint32_t>(light_pop.Pick(rng));
    return n_light + static_cast<uint32_t>(heavy_pop.Pick(rng));
  };
  const auto plan_of = [&](uint32_t id) -> const QueryPlan& {
    return id < n_light ? light.plans[id] : heavy.plans[id - n_light];
  };
  std::printf("workload %s rows=%llu lists=%zu postings=%llu shards=%zu "
              "pool=%zu streams=%zu plans=%zu+%zu heavy_share=%.2f "
              "fixed_qps=%.0f p99_limit_ms=%.1f\n",
              spec.name, static_cast<unsigned long long>(kRows), kLists,
              static_cast<unsigned long long>(data.Postings()), kShards,
              kPoolThreads, kStreams, light.plans.size(), heavy.plans.size(),
              spec.heavy_share, spec.fixed_qps, spec.p99_limit_ms);

  intcomp::ThreadPool pool(kPoolThreads);
  const std::string container = args.work_dir + "/serve.ics";
  Serving s;
  SetupTimes times;
  tracer.SetEnabled(args.trace);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!SetUp(spec, data, texts, container, &pool, &tracer, &s, &times, report)) {
      return;
    }
  }
  tracer.SetEnabled(false);
  std::printf("setup_s reps:");
  for (double v : times.total_s) std::printf(" %.4f", v);
  std::printf("\n");

  const Sender send = [&](size_t stream, uint32_t plan,
                          std::vector<uint32_t>* rows, Outcome*) {
    return s.clients[stream]->Query(texts[plan], 0, rows).ok();
  };
  // Correctness: every response against the oracle over the raw lists,
  // checked as each phase ends so no outcome log outlives its phase.
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> oracle;
  uint64_t checked = 0, failed = 0;
  const auto verify = [&](const std::vector<Outcome>& outs) {
    for (const Outcome& o : outs) {
      auto it = oracle.find(o.plan);
      if (it == oracle.end()) {
        const std::vector<uint32_t> want = Oracle(plan_of(o.plan), data.lists);
        it = oracle.emplace(o.plan, std::make_pair(want.size(), HashRows(want))).first;
      }
      const bool bad = !o.ok || o.rows != it->second.first || o.hash != it->second.second;
      if (bad && failed < 5) {
        std::printf("mismatch plan %s ok=%d rows=%llu want=%llu\n",
                    texts[o.plan].c_str(), o.ok, static_cast<unsigned long long>(o.rows),
                    static_cast<unsigned long long>(it->second.first));
      }
      failed += bad;
    }
    checked += outs.size();
  };
  // Latency at the fixed offered rate, first after set-up, untraced and
  // with nothing else on the pool.
  PhaseConfig fixed;
  fixed.streams = kStreams;
  fixed.rate = spec.fixed_qps;
  fixed.seconds = kFixedShare * S;
  fixed.seed = args.seed * 31 + 2;
  const intcomp::ServiceStats before = s.service->Stats();
  const PoolCounters pool_before = PoolCounters::Read(pool);
  const std::vector<Outcome> lat = RunPhase(fixed, pick, send);
  const PoolCounters pool_after = PoolCounters::Read(pool);
  const intcomp::ServiceStats after = s.service->Stats();
  verify(lat);
  PrintCensus(spec, lat, before, after, report);
  // Peak memory of set-up and the fixed-rate phase, whose request logs the
  // schedule fixes. The capacity search comes after: its logs grow with
  // throughput.
  const double rss_mb = PeakRssMb();

  std::vector<double> lat_ms, light_ms, slip_ms;
  for (const Outcome& o : lat) {
    lat_ms.push_back(o.latency_ms);
    if (o.cls == kLight) light_ms.push_back(o.latency_ms);
    if (o.idle_before) slip_ms.push_back(o.slip_ms);
  }
  const WindowedPct p50 = WindowedPercentile(lat_ms, 0.5, kWindows);
  const Pct p99 = Percentile(lat_ms, 0.99);
  const Pct light99 = Percentile(light_ms, 0.99);
  const Pct slip99 = Percentile(slip_ms, 0.99);
  report->PrintPct("p50_ms", p50);
  report->PrintPct("p99_ms", p99);
  report->PrintPct("light_p99_ms", light99);
  report->PrintPct("send_slip_p99_ms", slip99);
  // The generator's own lateness only touches the printed latency figures,
  // not the outputs or the gated metrics, so it flags them instead of
  // failing the run.
  std::printf("latency figures %s: generator send-slip p99 %.3f ms, allowed %.3f ms\n",
              slip99.value <= 0.25 * spec.p99_limit_ms ? "valid" : "INVALID", slip99.value,
              0.25 * spec.p99_limit_ms);

  CapacityConfig cap;
  cap.phase.streams = kStreams;
  cap.phase.seed = args.seed * 31 + 1;
  cap.limit_ms = spec.p99_limit_ms;
  cap.min_step_seconds = kMinStepSeconds;
  const Capacity capacity = FindCapacity(cap, pick, send, verify);
  std::printf("capacity %s %.2f qps at p99 <= %.1f ms; fixed rate %.0f qps "
              "is %.2f of it\n",
              spec.name, capacity.qps, spec.p99_limit_ms, spec.fixed_qps,
              spec.fixed_qps / capacity.qps);
  report->Check(capacity.undecided == 0,
                "capacity steps have >= 10 samples beyond their p99",
                std::to_string(capacity.undecided) + " undecided");

  // Traced run: tracing's cost, the pool's no-op wait under load, the
  // per-layer probes and the write probe, all after the figures above.
  if (args.trace) {
    PhaseConfig traced = fixed;
    traced.tracer = &tracer;
    traced.seconds = kOverheadShare * S;
    report->Metric("obs.trace_overhead_frac",
                   TraceOverhead(traced, kOverheadPairs, pick, send, verify), "frac");
    tracer.SetEnabled(true);
    traced.seconds = kSamplerShare * S;
    traced.seed = args.seed * 31 + 4;
    {
      NoopSampler sampler(&pool, kShards, &tracer);
      verify(RunPhase(traced, pick, send));
      sampler.Publish(report);
    }
    LayerContext ctx;
    ctx.tracer = &tracer;
    ctx.report = report;
    ctx.service = s.service.get();
    ctx.snapshot = s.service->Snapshot();
    ctx.pool = &pool;
    ctx.data = &data;
    ctx.port = s.server->port();
    ctx.fresh = FreshPlans(args.seed, kLists);
    ctx.texts = texts;
    ProbeLayers(ctx);
    ReportPoolDelta(report, pool_before, pool_after);
    ReportCacheDelta(report, before, after);
    report->Metric("index.build_s", Median(times.build_s), "s");
    report->Metric("index.warm_s", Median(times.warm_s), "s");
    report->Metric("storage.write_image_s", Median(times.write_s), "s");
    report->Metric("storage.open_ms", Median(times.open_ms), "ms");
    report->Metric("storage.first_query_ms", Median(times.first_ms), "ms");
    report->Metric("loadgen.send_slip_p99_us", slip99.value * 1e3, "us");
    s.Reset();
    ProbeWrites(data, std::span(heavy.plans).first(std::min<size_t>(100, heavy.plans.size())),
                args.work_dir + "/serve_live", &pool, kWriteShare * S,
                args.seed * 31 + 3, &tracer, report);
  }

  report->CountAttempts(checked, failed);
  report->Check(failed == 0, "responses equal the oracle",
                std::to_string(failed) + " wrong or failed of " +
                    std::to_string(checked) + ", " +
                    std::to_string(oracle.size()) + " distinct plans");

  // Service-level timings: printed by every run, and kept as unbounded
  // e2e.* metrics of the traced run (their spread across runs on a shared
  // host is wider than any bound; see BENCHMARK.json). The traced run takes
  // them from its untraced phases.
  const auto timing = [&](const std::string& name, double value, const char* unit) {
    if (args.trace) {
      report->Metric("e2e." + name, value, unit);
    } else {
      report->Info(name, value, unit);
    }
  };
  timing("capacity_qps", capacity.qps, "1/s");
  timing("p50_ms", p50.median.value, "ms");
  timing("p99_ms", p99.value, "ms");
  timing("light_p99_ms", light99.value, "ms");
  timing("fail_frac", failed / std::max<double>(checked, 1), "frac");
  if (!args.trace) {
    report->Metric("setup_s", Median(times.total_s), "s");
    report->Metric("bits_per_int", s.mapped->FileBytes() * 8.0 / static_cast<double>(data.Postings()), "bits");
    report->Metric("rss_mb", rss_mb, "MiB");
  } else {
    const std::string path = args.trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    tracer.PrintSelfTimes();
    report->Check(tracer.WriteJson(path), "trace written", path);
  }
}

}  // namespace perfbench

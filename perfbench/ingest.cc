// ingest_mix: writes beside reads on a durable LiveIndex. One open-loop
// writer sends Insert/Remove batches (fsync on every WAL record) and starts
// CompactAsync whenever pending delta rows cross a threshold; one open-loop
// reader sends serve_cold-style plans to the attached IndexService.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>

#include "core/registry.h"
#include "layers.h"
#include "loadgen.h"
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
using intcomp::storage::LiveIndex;

constexpr uint64_t kRows = 1u << 18;
constexpr size_t kLists = 128;
constexpr size_t kShards = 4;
constexpr size_t kPoolThreads = 2;
constexpr int kSetupReps = 9;

// Reads: uniform popularity over generated plans, 30% heavy.
constexpr size_t kLightPlans = 6000, kHeavyPlans = 4000;
constexpr double kHeavyShare = 0.3;
constexpr double kReadQps = 160;
constexpr double kP99LimitMs = 250;
// Writes: fixed rate, fixed batch, compaction threshold in delta rows.
constexpr double kWriteQps = 120;
constexpr size_t kWriteBatch = 8;
constexpr uint64_t kCompactRows = 2000;

// Capacity steps, and the closed-loop phase that sets their bracket, last
// at least one compaction period (about 2 s at the write rate above), so a
// step does not hang on whether it held a compaction stall.
constexpr double kMinStepSeconds = 3.0;
// Seconds of the run given to each phase, as shares of --seconds. The
// capacity search is sized by its steps instead. The traced run adds the
// trace-overhead pairs and the no-op sampler phase.
constexpr double kFixedShare = 0.65;
constexpr int kOverheadPairs = 5;
constexpr double kOverheadShare = 0.03, kSamplerShare = 0.1;
// Fixed-rate medians are the median over this many consecutive windows of
// the phase, so a burst of host noise moves a few windows, not the result.
// Tail percentiles are taken over the whole phase.
constexpr int kWindows = 10;

struct Ingest {
  std::unique_ptr<intcomp::ShardedIndex> base;
  std::unique_ptr<LiveIndex> live;
  std::unique_ptr<intcomp::IndexService> service;

  void Reset() {
    if (live) live->AttachService(nullptr);
    service.reset();
    live.reset();
    base.reset();
  }
};

std::vector<size_t> SortedLeaves(const QueryPlan& plan) {
  std::vector<size_t> leaves;
  CollectLeaves(plan, &leaves);
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  return leaves;
}

void Apply(const WriteRecord& w, std::vector<uint32_t>* list) {
  if (w.insert) {
    InsertRows(list, w.rows);
  } else {
    RemoveRows(list, w.rows);
  }
}

// A read that saw write-state window [lo, hi] is correct if its result
// equals the model after k acknowledged writes for some k in the window.
uint64_t CountWrongReads(const std::vector<Outcome>& reads,
                         const std::function<const QueryPlan&(uint32_t)>& plan_of,
                         Lists model, const std::vector<WriteRecord>& log) {
  std::vector<size_t> order(reads.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return reads[a].lo < reads[b].lo; });
  size_t applied = 0;
  uint64_t wrong = 0;
  for (size_t idx : order) {
    const Outcome& o = reads[idx];
    if (!o.ok) {
      ++wrong;
      continue;
    }
    for (; applied < o.lo; ++applied) Apply(log[applied], &model[log[applied].list]);
    const QueryPlan& plan = plan_of(o.plan);
    const std::vector<size_t> leaves = SortedLeaves(plan);
    std::vector<uint32_t> ids;
    Lists overrides;
    bool match = false;
    const uint64_t hi = std::min<uint64_t>(o.hi, log.size());
    for (uint64_t k = o.lo; k <= hi && !match; ++k) {
      if (k > o.lo) {
        const WriteRecord& w = log[k - 1];
        if (!std::binary_search(leaves.begin(), leaves.end(), w.list)) continue;
        auto it = std::find(ids.begin(), ids.end(), w.list);
        if (it == ids.end()) {
          ids.push_back(w.list);
          overrides.push_back(model[w.list]);
          it = ids.end() - 1;
        }
        Apply(w, &overrides[it - ids.begin()]);
      }
      const std::vector<uint32_t> want = OracleWith(plan, model, ids, overrides);
      match = want.size() == o.rows && HashRows(want) == o.hash;
    }
    wrong += !match;
  }
  return wrong;
}

}  // namespace

void RunIngest(const RunArgs& args, Report* report) {
  Tracer tracer;
  const double S = args.seconds;
  const Dataset data = MakeDataset(args.seed, kRows, kLists);
  intcomp::Prng plan_rng(args.seed ^ 0x5eed);
  const PlanPool light = MakePlans(kLight, kLightPlans, kLists, &plan_rng);
  const PlanPool heavy = MakePlans(kHeavy, kHeavyPlans, kLists, &plan_rng);
  const uint32_t n_light = kLightPlans;
  const auto plan_of = [&](uint32_t id) -> const QueryPlan& {
    return id < n_light ? light.plans[id] : heavy.plans[id - n_light];
  };
  const Picker pick = [&](intcomp::Prng* rng, uint8_t* cls) -> uint32_t {
    *cls = rng->NextDouble() < kHeavyShare ? kHeavy : kLight;
    return *cls == kLight ? static_cast<uint32_t>(rng->NextBounded(kLightPlans))
                          : n_light + static_cast<uint32_t>(rng->NextBounded(kHeavyPlans));
  };
  std::printf("workload ingest_mix rows=%llu lists=%zu postings=%llu "
              "shards=%zu pool=%zu read_qps=%.0f write_qps=%.0f batch=%zu "
              "compact_rows=%llu p99_limit_ms=%.1f wal_sync=every-record\n",
              static_cast<unsigned long long>(kRows), kLists,
              static_cast<unsigned long long>(data.Postings()), kShards,
              kPoolThreads, kReadQps, kWriteQps, kWriteBatch,
              static_cast<unsigned long long>(kCompactRows), kP99LimitMs);

  intcomp::ThreadPool pool(kPoolThreads);
  const intcomp::Codec* planner = intcomp::FindCodec("Planner");
  Ingest in;
  std::vector<double> setup_s, build_s, warm_s;
  tracer.SetEnabled(args.trace);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in.Reset();
    const std::string dir = args.work_dir + "/live" + std::to_string(rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(&tracer, "index.build");
      in.base = std::make_unique<intcomp::ShardedIndex>(
          intcomp::ShardedIndex::Build(*planner, data.lists, kRows, kShards));
    }
    const int64_t t1 = NowNs();
    {
      ScopedSpan span(&tracer, "storage.live_create");
      auto created = LiveIndex::Create(dir, *in.base);
      if (!report->Check(created.ok(), "live index create",
                         created.status().ToString())) {
        return;
      }
      in.live = std::move(created.value());
    }
    in.service = std::make_unique<intcomp::IndexService>(
        in.live->Snapshot(), &pool, intcomp::IndexServiceOptions{});
    in.live->AttachService(in.service.get());
    // Set-up ends here; the warm-up queries are timed apart, as in serve.
    setup_s.push_back((NowNs() - t0) / 1e9);
    const int64_t warm = NowNs();
    std::vector<uint32_t> rows;
    bool warm_ok = true;
    for (size_t l = 0; l < kLists; ++l) {
      warm_ok = in.service->Query(QueryPlan::Leaf(l), &rows).ok() && warm_ok;
    }
    report->Check(warm_ok, "warm-up queries", "ingest_mix");
    warm_s.push_back((NowNs() - warm) / 1e9);
    build_s.push_back((t1 - t0) / 1e9);
  }
  tracer.SetEnabled(false);
  std::printf("setup_s reps:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  const std::string live_dir = args.work_dir + "/live" + std::to_string(kSetupReps - 1);

  WriterConfig wc;
  wc.rate = kWriteQps;
  wc.batch = kWriteBatch;
  wc.compact_rows = kCompactRows;
  wc.seed = args.seed * 31 + 3;
  Writer writer(in.live.get(), &pool, data.lists, kRows, wc, &tracer);
  const Sender read = [&](size_t, uint32_t plan, std::vector<uint32_t>* rows,
                          Outcome* o) {
    o->lo = writer.Applied();
    const bool ok = in.service->Query(plan_of(plan), rows).ok();
    o->hi = writer.Applied() + 1;
    return ok;
  };

  writer.Start();
  // Reads are kept: the history check needs every read's write window.
  std::vector<Outcome> all;
  const auto keep = [&](const std::vector<Outcome>& outs) {
    all.insert(all.end(), outs.begin(), outs.end());
  };

  // Latency at the fixed offered rates, first after set-up, untraced and
  // with nothing but the writer and the reader on the pool.
  PhaseConfig fixed;
  fixed.streams = 1;
  fixed.rate = kReadQps;
  fixed.seconds = kFixedShare * S;
  fixed.seed = args.seed * 31 + 2;
  fixed.call_span = "service.query";
  const intcomp::ServiceStats before = in.service->Stats();
  const PoolCounters pool_before = PoolCounters::Read(pool);
  const uint64_t writes_before = writer.Applied();
  const size_t compactions_before = in.live->Stats().compactions;
  writer.SetRecording(true);
  const std::vector<Outcome> lat = RunPhase(fixed, pick, read);
  writer.SetRecording(false);
  const uint64_t writes = writer.Applied() - writes_before;
  const size_t compactions = in.live->Stats().compactions - compactions_before;
  const PoolCounters pool_after = PoolCounters::Read(pool);
  const intcomp::ServiceStats after = in.service->Stats();
  keep(lat);
  // Peak memory of set-up and the fixed-rate phase, whose request logs the
  // schedule fixes. The capacity search comes after: its logs grow with
  // throughput.
  const double rss_mb = PeakRssMb();

  CapacityConfig cap;
  cap.phase.streams = 1;
  cap.phase.seed = args.seed * 31 + 1;
  cap.limit_ms = kP99LimitMs;
  cap.min_step_seconds = kMinStepSeconds;
  const Capacity capacity = FindCapacity(cap, pick, read, keep);
  std::printf("capacity ingest_mix %.2f qps at p99 <= %.1f ms; fixed rate "
              "%.0f qps is %.2f of it\n",
              capacity.qps, kP99LimitMs, kReadQps, kReadQps / capacity.qps);
  report->Check(capacity.undecided == 0,
                "capacity steps have >= 10 samples beyond their p99",
                std::to_string(capacity.undecided) + " undecided");
  // Traced run: tracing's cost and the pool's no-op wait, with the writer
  // still running, after the figures above.
  if (args.trace) {
    PhaseConfig traced = fixed;
    traced.tracer = &tracer;
    traced.seconds = kOverheadShare * S;
    report->Metric("obs.trace_overhead_frac",
                   TraceOverhead(traced, kOverheadPairs, pick, read, keep), "frac");
    tracer.SetEnabled(true);
    traced.seconds = kSamplerShare * S;
    traced.seed = args.seed * 31 + 4;
    NoopSampler sampler(&pool, kShards, &tracer);
    keep(RunPhase(traced, pick, read));
    sampler.Publish(report);
  }
  writer.Stop();
  report->CountAttempts(writer.Attempted(), writer.Failures());
  report->Check(writer.Failures() == 0, "writes and compactions succeed",
                std::to_string(writer.Failures()) + " failed");

  // Census of the latency phase.
  {
    const double hits = after.cache.hits - before.cache.hits;
    const double probes = std::max<double>(hits + after.cache.misses - before.cache.misses, 1);
    double heavy_n = 0, rows = 0;
    for (const Outcome& o : lat) {
      heavy_n += o.cls == kHeavy;
      rows += o.rows;
    }
    const double n = std::max<double>(lat.size(), 1);
    const double write_share = writes / std::max<double>(writes + lat.size(), 1);
    std::printf("census ingest_mix reads=%zu writes=%llu write_share=%.4f "
                "compactions=%zu (median %.1f ms) hit_share=%.4f heavy_share=%.4f "
                "mean_rows=%.1f\n",
                lat.size(), static_cast<unsigned long long>(writes), write_share,
                compactions, Median(writer.CompactSeconds()) * 1e3, hits / probes,
                heavy_n / n, rows / n);
    const double want_share = kWriteQps / (kWriteQps + kReadQps);
    report->Range("census write share", write_share, want_share - 0.05,
                  want_share + 0.05);
    report->Range("census compactions in the latency phase",
                  static_cast<double>(compactions), 1, 50);
    report->Range("census cache hit share", hits / probes, 0, 0.05);
    report->Range("census heavy plan share", heavy_n / n, kHeavyShare - 0.05,
                  kHeavyShare + 0.05);
    report->Range("census mean rows per result", rows / n, 500, 50000);
  }

  std::vector<double> lat_ms, light_ms, slip_ms;
  for (const Outcome& o : lat) {
    lat_ms.push_back(o.latency_ms);
    if (o.cls == kLight) light_ms.push_back(o.latency_ms);
    if (o.idle_before) slip_ms.push_back(o.slip_ms);
  }
  slip_ms.insert(slip_ms.end(), writer.SlipsMs().begin(), writer.SlipsMs().end());
  const WindowedPct p50 = WindowedPercentile(lat_ms, 0.5, kWindows);
  const Pct p99 = Percentile(lat_ms, 0.99);
  const Pct light99 = Percentile(light_ms, 0.99);
  const WindowedPct w50 = WindowedPercentile(writer.LatenciesMs(), 0.5, kWindows);
  const Pct w99 = Percentile(writer.LatenciesMs(), 0.99);
  const Pct slip99 = Percentile(slip_ms, 0.99);
  report->PrintPct("p50_ms", p50);
  report->PrintPct("p99_ms", p99);
  report->PrintPct("light_p99_ms", light99);
  report->PrintPct("write_p50_ms", w50);
  report->PrintPct("write_p99_ms", w99);
  report->PrintPct("send_slip_p99_ms", slip99);
  // The generator's own lateness only touches the printed latency figures,
  // not the outputs or the gated metrics, so it flags them instead of
  // failing the run.
  std::printf("latency figures %s: generator send-slip p99 %.3f ms, allowed %.3f ms\n",
              slip99.value <= 0.25 * kP99LimitMs ? "valid" : "INVALID", slip99.value,
              0.25 * kP99LimitMs);

  std::vector<double> compact_s = writer.CompactSeconds();
  if (args.trace) {
    uint64_t rows_written = 0;
    for (const WriteRecord& w : writer.Log()) rows_written += w.rows.size();
    ProbeLiveIndex(in.live.get(), &pool, std::span(heavy.plans).first(100),
                   rows_written, &tracer, report);
  }
  // Fold what is left so the image reflects every write.
  {
    ScopedSpan span(&tracer, "storage.compact");
    const int64_t t = NowNs();
    const intcomp::Status st = in.live->Compact();
    compact_s.push_back((NowNs() - t) / 1e9);
    report->Check(st.ok(), "final compaction", st.ToString());
  }
  uint64_t postings = 0;
  for (const auto& l : writer.Model()) postings += l.size();
  const double image_bytes =
      static_cast<double>(fs::file_size(live_dir + "/" + LiveIndex::kIndexFile));

  if (args.trace) {
    report->Metric("storage.compact_s", Median(compact_s), "s");
    // Container path on the ingest index: write, lazy open, first query.
    std::vector<double> write_s, open_ms, first_ms;
    const std::string path = args.work_dir + "/probe.ics";
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(&tracer, "storage.write_image");
        report->Check(intcomp::storage::WriteIndexFile(path, *in.base).ok(),
                      "probe image write", path);
      }
      const int64_t t1 = NowNs();
      auto opened = intcomp::storage::MappedIndex::Open(
          path, {intcomp::storage::ValidateMode::kLazy});
      const int64_t t2 = NowNs();
      if (!report->Check(opened.ok(), "probe image open", opened.status().ToString())) {
        break;
      }
      intcomp::IndexService svc(opened.value().get(), &pool, {});
      std::vector<uint32_t> rows;
      {
        ScopedSpan span(&tracer, "storage.first_query");
        (void)svc.Query(light.plans[0], &rows);
      }
      write_s.push_back((t1 - t0) / 1e9);
      open_ms.push_back((t2 - t1) / 1e6);
      first_ms.push_back(MsSince(t2));
    }
    report->Metric("index.build_s", Median(build_s), "s");
    report->Metric("index.warm_s", Median(warm_s), "s");
    report->Metric("storage.write_image_s", Median(write_s), "s");
    report->Metric("storage.open_ms", Median(open_ms), "ms");
    report->Metric("storage.first_query_ms", Median(first_ms), "ms");

    intcomp::net::QueryServer server(in.service.get(), {});
    report->Check(server.Start().ok(), "probe server start", "ingest_mix");
    LayerContext ctx;
    ctx.tracer = &tracer;
    ctx.report = report;
    ctx.service = in.service.get();
    ctx.snapshot = in.live->Snapshot();
    ctx.pool = &pool;
    ctx.data = &data;
    ctx.port = server.port();
    ctx.fresh = FreshPlans(args.seed, kLists);
    ctx.texts = light.texts;
    ProbeLayers(ctx);
    server.Stop();
    ReportPoolDelta(report, pool_before, pool_after);
    ReportCacheDelta(report, before, after);
    report->Metric("loadgen.send_slip_p99_us", slip99.value * 1e3, "us");
  }

  // Reads against the write history, then durability of the writes.
  const uint64_t wrong = CountWrongReads(all, plan_of, data.lists, writer.Log());
  report->CountAttempts(all.size(), wrong);
  report->Check(wrong == 0, "reads equal the model at a state they overlapped",
                std::to_string(wrong) + " of " + std::to_string(all.size()));
  {
    in.live->AttachService(nullptr);
    const intcomp::Status st = in.live->Close();
    report->Check(st.ok(), "live close", st.ToString());
    auto reopened = LiveIndex::Open(live_dir);
    if (report->Check(reopened.ok(), "live reopen", reopened.status().ToString())) {
      const size_t bad =
          CountListMismatches(reopened.value()->Snapshot(), &pool, writer.Model());
      report->CountAttempts(kLists, bad);
      report->Check(bad == 0, "durability: reopened lists equal the model",
                    std::to_string(bad) + " of " + std::to_string(kLists) +
                        " lists differ");
    }
  }

  // Service-level timings: printed by every run, and kept as unbounded
  // e2e.* metrics of the traced run (their spread across runs on a shared
  // host is wider than any bound; see BENCHMARK.json).
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
  timing("write_p50_ms", w50.median.value, "ms");
  timing("write_p99_ms", w99.value, "ms");
  timing("fail_frac", wrong / std::max<double>(all.size(), 1), "frac");
  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("bits_per_int", image_bytes * 8 / static_cast<double>(postings), "bits");
    report->Metric("rss_mb", rss_mb, "MiB");
  } else {
    const std::string path =
        args.trace_dir + "/ingest_mix-seed" + std::to_string(args.seed) + ".json";
    tracer.PrintSelfTimes();
    report->Check(tracer.WriteJson(path), "trace written", path);
  }
}

}  // namespace perfbench

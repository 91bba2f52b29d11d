// Sharded index service at scale: a shard-count × thread-count sweep over a
// zipf-popular query stream, reporting throughput, p50/p99 latency, and
// result-cache hit rate per configuration.
//
// The workload models a serving column: `--size` rows of a low-cardinality
// column, `--queries` distinct predicate plans (Eq / IN / range-of-values /
// AND-of-ORs), and `--ops` service calls whose plan popularity is zipf —
// hot plans repeat, which is what gives the result cache its hit rate.
// Every configuration re-runs the same plan stream and cross-checks result
// cardinalities against the 1-shard/1-thread baseline (the service's
// determinism guarantee); any divergence aborts the run.
//
//   service_scale --codec=Roaring --size=2000000 --card=16
//     --shards=1,2,4,8 --threads=1,2,4,8 --queries=64 --ops=2000
//     --popularity-skew=1.0 [--no-cache] [--metrics-out=PATH]
//
// A second section sweeps the read/write mix: the same plan stream is run
// against a durable LiveIndex (WAL + delta overlay + inline compaction,
// DESIGN.md §5.11) with --update-pct percent of the ops replaced by
// insert/remove batches. The 0%-update row doubles as an equivalence check:
// its per-plan result cardinalities must match the in-RAM sweep above
// (mmap-served overlay == RAM-served base). Knobs:
//
//   --update-pct=0,1,10,50   mix sweep (percent of ops that are updates)
//   --update-rows=64         rows per update batch
//   --compact-every=200      inline Compact() after every Nth update (0=off)
//   --sync-every=1           WAL fsync cadence (0 = only on Close)
//   --dir=/tmp/...           scratch directory for the durable index
//
// NOTE: speedup is relative to the 1-shard/1-thread configuration of the
// same run; on a single-core host the sweep measures overhead, not scaling
// (see EXPERIMENTS.md).

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchutil/timer.h"
#include "common/prng.h"
#include "engine/thread_pool.h"
#include "obs/histogram.h"
#include "service/sharded_index.h"
#include "storage/live_index.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

std::vector<size_t> ParseCsvSizes(const std::string& csv, const char* flag) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    size_t v = 0;
    for (size_t i = pos; i < comma; ++i) {
      if (csv[i] < '0' || csv[i] > '9') { v = 0; break; }
      v = v * 10 + static_cast<size_t>(csv[i] - '0');
    }
    if (v == 0) {
      std::fprintf(stderr, "bad %s entry in '%s' (want counts >= 1)\n", flag,
                   csv.c_str());
      std::exit(2);
    }
    out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

// Random predicate plans over value codes: Eq, IN-list, value range
// (contiguous OR), and (OR ...) AND (OR ...) conjunctions.
std::vector<QueryPlan> MakePlans(size_t count, uint32_t card, Prng* rng) {
  std::vector<QueryPlan> plans;
  plans.reserve(count);
  const auto leaf = [&] {
    return QueryPlan::Leaf(rng->NextBounded(card));
  };
  const auto some_or = [&](size_t max_terms) {
    std::vector<QueryPlan> kids;
    const size_t terms = 1 + rng->NextBounded(max_terms);
    for (size_t i = 0; i < terms; ++i) kids.push_back(leaf());
    return kids.size() == 1 ? kids[0] : QueryPlan::Or(std::move(kids));
  };
  for (size_t q = 0; q < count; ++q) {
    switch (rng->NextBounded(4)) {
      case 0:  // Eq
        plans.push_back(leaf());
        break;
      case 1:  // IN-list
        plans.push_back(some_or(4));
        break;
      case 2: {  // value range [lo, hi]
        const uint32_t lo = static_cast<uint32_t>(rng->NextBounded(card));
        const uint32_t hi = static_cast<uint32_t>(
            std::min<uint64_t>(card - 1, lo + rng->NextBounded(4)));
        std::vector<QueryPlan> kids;
        for (uint32_t c = lo; c <= hi; ++c) kids.push_back(QueryPlan::Leaf(c));
        plans.push_back(kids.size() == 1 ? kids[0]
                                         : QueryPlan::Or(std::move(kids)));
        break;
      }
      default:  // conjunction of disjunctions (SSB-style)
        plans.push_back(QueryPlan::And({some_or(3), some_or(3)}));
    }
  }
  return plans;
}

// Like ParseCsvSizes but for percentages: 0 is a legal entry (pure reads).
std::vector<size_t> ParseCsvPcts(const std::string& csv) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    bool ok = comma > pos;
    size_t v = 0;
    for (size_t i = pos; i < comma; ++i) {
      if (csv[i] < '0' || csv[i] > '9') { ok = false; break; }
      v = v * 10 + static_cast<size_t>(csv[i] - '0');
    }
    if (!ok || v > 100) {
      std::fprintf(stderr, "bad --update-pct entry in '%s' (want 0..100)\n",
                   csv.c_str());
      std::exit(2);
    }
    out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

// Zipf popularity over plan indices: index k is drawn with weight
// 1/(k+1)^skew, so a handful of plans dominate the stream.
struct ZipfPicker {
  std::vector<double> cdf;
  ZipfPicker(size_t n, double skew) {
    cdf.reserve(n);
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  size_t Pick(Prng* rng) const {
    const double u = rng->NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
};

// One op of the read/write mix: a query (plan index) or an update batch.
struct MixStep {
  size_t plan = 0;
  bool update = false;
  bool insert = false;          // vs. remove
  uint32_t list = 0;
  std::vector<uint32_t> rows;   // update batch (unsorted; dupes allowed)
};

// Replaces `pct` percent of the fixed plan stream with update batches.
// Seeded per mix, so every configuration of one mix replays byte-identical
// ops and the WAL/compaction counters are deterministic across runs.
std::vector<MixStep> MakeMixStream(const std::vector<size_t>& plan_stream,
                                   size_t pct, size_t batch, uint32_t card,
                                   uint64_t num_rows, uint64_t seed) {
  Prng rng(seed);
  std::vector<MixStep> steps(plan_stream.size());
  for (size_t i = 0; i < plan_stream.size(); ++i) {
    MixStep& s = steps[i];
    s.plan = plan_stream[i];
    if (pct > 0 && rng.NextBounded(100) < pct) {
      s.update = true;
      s.insert = rng.NextBounded(2) == 0;
      s.list = static_cast<uint32_t>(rng.NextBounded(card));
      s.rows.reserve(batch);
      for (size_t r = 0; r < batch; ++r) {
        s.rows.push_back(static_cast<uint32_t>(rng.NextBounded(num_rows)));
      }
    }
  }
  return steps;
}

// Fresh scratch directory for one durable-index configuration.
void ResetIndexDir(const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);
  for (const char* f :
       {storage::LiveIndex::kIndexFile, storage::LiveIndex::kWalFile,
        storage::LiveIndex::kIndexTmpFile, storage::LiveIndex::kWalTmpFile}) {
    ::unlink((dir + "/" + f).c_str());
  }
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchMetrics metrics("service_scale", flags);
  ApplyKernelFlag(flags);
  const std::string codec_name = flags.GetString("codec", "Roaring");
  const Codec* codec = FindCodec(codec_name);
  if (codec == nullptr) {
    std::fprintf(stderr, "unknown codec: %s\n", codec_name.c_str());
    std::exit(2);
  }
  const size_t rows = flags.GetInt("size", 2000000);
  const uint32_t card = static_cast<uint32_t>(flags.GetInt("card", 16));
  const size_t num_plans = flags.GetInt("queries", 64);
  const size_t ops = flags.GetInt("ops", 2000);
  const double skew = flags.GetDouble("popularity-skew", 1.0);
  const uint64_t seed = flags.GetInt("seed", 7);
  const bool cache_on = !flags.GetBool("no-cache", false);
  const std::vector<size_t> shard_counts =
      ParseCsvSizes(flags.GetString("shards", "1,2,4,8"), "--shards");
  const std::vector<size_t> thread_counts =
      ParseCsvSizes(flags.GetString("threads", "1,2,4,8"), "--threads");
  const std::vector<size_t> update_pcts =
      ParseCsvPcts(flags.GetString("update-pct", "0,1,10,50"));
  const size_t update_rows = flags.GetInt("update-rows", 64);
  const size_t compact_every = flags.GetInt("compact-every", 200);
  const size_t sync_every = flags.GetInt("sync-every", 1);
  const std::string dir =
      flags.GetString("dir", "/tmp/intcomp_service_scale");

  // The serving column: skewed value popularity (min of two uniforms).
  Prng rng(seed);
  std::vector<uint32_t> codes;
  codes.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    codes.push_back(static_cast<uint32_t>(
        std::min(rng.NextBounded(card), rng.NextBounded(card))));
  }
  const std::vector<QueryPlan> plans = MakePlans(num_plans, card, &rng);
  const ZipfPicker picker(num_plans, skew);
  // One fixed plan stream shared by every configuration, so hit rates and
  // checksums are comparable across the sweep.
  std::vector<size_t> stream;
  stream.reserve(ops);
  for (size_t i = 0; i < ops; ++i) stream.push_back(picker.Pick(&rng));

  std::printf(
      "== service_scale: %s, rows=%zu card=%u plans=%zu ops=%zu skew=%.2f "
      "cache=%s ==\n",
      codec_name.c_str(), rows, card, num_plans, ops, skew,
      cache_on ? "on" : "off");
  std::printf("%7s %8s %10s %10s %10s %10s %8s %8s\n", "shards", "threads",
              "time(ms)", "qps", "p50(us)", "p99(us)", "hit%", "speedup");

  std::vector<size_t> checksums;  // per-plan result sizes, from the baseline
  double baseline_ms = 0;
  for (size_t shards : shard_counts) {
    const ShardedIndex index =
        ShardedIndex::BuildFromColumn(*codec, codes, card, shards);
    for (size_t threads : thread_counts) {
      ThreadPool pool(threads);
      IndexServiceOptions options;
      options.cache_enabled = cache_on;
      IndexService service(&index, &pool, options);

      obs::LatencyHistogram lat;
      std::vector<uint32_t> result;
      const uint64_t t0 = NowNs();
      for (const size_t q : stream) {
        const uint64_t q0 = NowNs();
        const Status st = service.Query(plans[q], &result);
        lat.Record(NowNs() - q0);
        if (!st.ok()) {
          std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
          std::exit(1);
        }
        // Determinism cross-check against the baseline configuration.
        if (checksums.size() < plans.size()) {
          checksums.resize(plans.size(), SIZE_MAX);
        }
        if (checksums[q] == SIZE_MAX) {
          checksums[q] = result.size();
        } else if (checksums[q] != result.size()) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: plan %zu returned %zu rows at "
                       "%zu shards / %zu threads, baseline %zu\n",
                       q, result.size(), shards, threads, checksums[q]);
          std::exit(1);
        }
      }
      const double total_ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (baseline_ms == 0) baseline_ms = total_ms;

      const ServiceStats stats = service.Stats();
      const double probes =
          static_cast<double>(stats.cache.hits + stats.cache.misses);
      const double hit_pct =
          probes > 0 ? 100.0 * static_cast<double>(stats.cache.hits) / probes
                     : 0.0;
      std::printf("%7zu %8zu %10.2f %10.0f %10.1f %10.1f %8.1f %8.2f\n",
                  shards, threads, total_ms,
                  1000.0 * static_cast<double>(ops) / total_ms,
                  static_cast<double>(lat.P50()) / 1e3,
                  static_cast<double>(lat.P99()) / 1e3, hit_pct,
                  baseline_ms / total_ms);
    }
  }
  // ---- Read/write mix sweep: the durable LiveIndex under update load ----
  //
  // Fixed at the largest shard/thread configuration; the x-axis is the
  // update fraction. Every row rebuilds the index from scratch (fresh
  // container + empty WAL), so rows are independent and deterministic.
  const size_t mix_shards = shard_counts.back();
  const size_t mix_threads = thread_counts.back();
  const ShardedIndex mix_base =
      ShardedIndex::BuildFromColumn(*codec, codes, card, mix_shards);

  std::printf(
      "\n== read/write mix: shards=%zu threads=%zu batch=%zu "
      "compact-every=%zu sync-every=%zu dir=%s ==\n",
      mix_shards, mix_threads, update_rows, compact_every, sync_every,
      dir.c_str());
  std::printf("%5s %8s %10s %10s %10s %10s %8s %9s %10s %7s %7s\n", "upd%",
              "updates", "time(ms)", "qps", "p50(us)", "p99(us)", "hit%",
              "upd/s", "updp99(us)", "fsyncs", "cmpact");

  for (size_t pct : update_pcts) {
    const std::vector<MixStep> steps =
        MakeMixStream(stream, pct, update_rows, card, rows,
                      seed ^ (0x9e3779b97f4a7c15ull * (pct + 1)));
    ResetIndexDir(dir);
    storage::LiveIndexOptions live_options;
    live_options.wal.sync_every_records = sync_every;
    auto live = storage::LiveIndex::Create(dir, mix_base, live_options);
    if (!live.ok()) {
      std::fprintf(stderr, "LiveIndex::Create failed: %s\n",
                   live.status().ToString().c_str());
      std::exit(1);
    }
    ThreadPool pool(mix_threads);
    IndexServiceOptions options;
    options.cache_enabled = cache_on;
    IndexService service((*live)->Snapshot(), &pool, options);
    (*live)->AttachService(&service);

    obs::LatencyHistogram lat_q, lat_u;
    std::vector<uint32_t> result;
    size_t updates = 0, updates_since_compact = 0, queries = 0;
    const uint64_t t0 = NowNs();
    for (const MixStep& step : steps) {
      const uint64_t q0 = NowNs();
      if (step.update) {
        const Status st =
            step.insert ? (*live)->Insert(step.list, step.rows)
                        : (*live)->Remove(step.list, step.rows);
        lat_u.Record(NowNs() - q0);
        if (!st.ok()) {
          std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
          std::exit(1);
        }
        ++updates;
        if (compact_every > 0 && ++updates_since_compact == compact_every) {
          updates_since_compact = 0;
          const Status cs = (*live)->Compact();
          if (!cs.ok()) {
            std::fprintf(stderr, "compaction failed: %s\n",
                         cs.ToString().c_str());
            std::exit(1);
          }
        }
      } else {
        const Status st = service.Query(plans[step.plan], &result);
        lat_q.Record(NowNs() - q0);
        if (!st.ok()) {
          std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
          std::exit(1);
        }
        ++queries;
        // With zero updates in flight the mmap-served overlay must agree
        // with the in-RAM sweep above, plan for plan.
        if (pct == 0 && checksums[step.plan] != result.size()) {
          std::fprintf(stderr,
                       "EQUIVALENCE VIOLATION: plan %zu returned %zu rows "
                       "from the durable index, in-RAM baseline %zu\n",
                       step.plan, result.size(), checksums[step.plan]);
          std::exit(1);
        }
      }
    }
    const double total_ms = static_cast<double>(NowNs() - t0) / 1e6;

    const ServiceStats sstats = service.Stats();
    const double probes =
        static_cast<double>(sstats.cache.hits + sstats.cache.misses);
    const double hit_pct =
        probes > 0 ? 100.0 * static_cast<double>(sstats.cache.hits) / probes
                   : 0.0;
    const storage::LiveIndexStats lstats = (*live)->Stats();
    (*live)->AttachService(nullptr);
    const Status close = (*live)->Close();
    if (!close.ok()) {
      std::fprintf(stderr, "close failed: %s\n", close.ToString().c_str());
      std::exit(1);
    }
    std::printf(
        "%5zu %8zu %10.2f %10.0f %10.1f %10.1f %8.1f %9.0f %10.1f %7llu "
        "%7llu\n",
        pct, updates, total_ms,
        1000.0 * static_cast<double>(queries) / total_ms,
        static_cast<double>(lat_q.P50()) / 1e3,
        static_cast<double>(lat_q.P99()) / 1e3, hit_pct,
        updates > 0 ? 1000.0 * static_cast<double>(updates) / total_ms : 0.0,
        updates > 0 ? static_cast<double>(lat_u.P99()) / 1e3 : 0.0,
        static_cast<unsigned long long>(lstats.wal_syncs),
        static_cast<unsigned long long>(lstats.compactions));
  }

  PrintPaperShape(
      "query fan-out over shards scales with pool threads until the "
      "per-shard slice is too small to amortize dispatch; the result cache "
      "converts zipf plan popularity into hits that bypass evaluation "
      "entirely; under a write mix every update invalidates the cache and "
      "pays the WAL fsync, so hit rate and update tails, not query medians, "
      "are what degrade first");
}

}  // namespace
}  // namespace intcomp

int main(int argc, char** argv) {
  intcomp::Run(argc, argv);
  return 0;
}

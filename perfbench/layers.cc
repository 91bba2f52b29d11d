#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/registry.h"
#include "core/scratch.h"
#include "core/set_ops.h"
#include "net/client.h"
#include "net/wire.h"
#include "planner/planner_codec.h"
#include "planner/strategy.h"
#include "service/plan_text.h"
#include "service/result_cache.h"

namespace perfbench {

using intcomp::QueryPlan;

namespace {

// Repeats `body` until at least `min_ms` have passed inside one span, and
// returns the mean time per repetition in ns.
template <typename Body>
double TimeLoopNs(Tracer* tracer, const char* span, double min_ms, Body body) {
  ScopedSpan s(tracer, span);
  const int64_t start = NowNs();
  size_t reps = 0;
  do {
    body();
    ++reps;
  } while (MsSince(start) < min_ms);
  return (NowNs() - start) / static_cast<double>(reps);
}

template <typename Fn>
double TimeCallMs(Tracer* tracer, const char* span, Fn fn) {
  ScopedSpan s(tracer, span);
  const int64_t start = NowNs();
  fn();
  return MsSince(start);
}

std::vector<size_t> Leaves(const QueryPlan& plan) {
  std::vector<size_t> leaves;
  CollectLeaves(plan, &leaves);
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  return leaves;
}

}  // namespace

std::vector<QueryPlan> FreshPlans(uint64_t seed, size_t num_lists) {
  intcomp::Prng rng(seed ^ 0xf7e5);
  const PlanPool light = MakePlans(kLight, 140, num_lists, &rng);
  const PlanPool heavy = MakePlans(kHeavy, 60, num_lists, &rng);
  std::vector<QueryPlan> plans;
  for (size_t i = 0, l = 0, h = 0; i < 200; ++i) {
    plans.push_back(i % 10 < 7 ? light.plans[l++] : heavy.plans[h++]);
  }
  return plans;
}

void ProbeLayers(const LayerContext& ctx) {
  ProbeService(ctx);
  ProbeNet(ctx);
  ProbeCodecs(ctx);
}

void ProbeLiveIndex(intcomp::storage::LiveIndex* live, intcomp::ThreadPool* pool,
                    std::span<const QueryPlan> plans, uint64_t rows_written,
                    Tracer* tracer, Report* report) {
  const intcomp::storage::LiveIndexStats ls = live->Stats();
  report->Metric("storage.wal_bytes_per_row",
                 ls.wal_bytes / std::max<double>(rows_written, 1), "B/row");
  report->Metric("storage.wal_syncs_per_write",
                 ls.wal_syncs / std::max<double>(ls.inserts + ls.removes, 1),
                 "count");
  std::vector<double> sync_us;
  bool synced = true;
  for (int i = 0; i < 50; ++i) {
    sync_us.push_back(1e3 * TimeCallMs(tracer, "storage.sync", [&] {
      synced = live->Sync().ok() && synced;
    }));
  }
  report->Check(synced, "live sync", "50 LiveIndex::Sync calls");
  report->Metric("storage.sync_us", Median(sync_us), "us");
  // Reads over the pending deltas, through a cacheless service.
  intcomp::IndexServiceOptions no_cache;
  no_cache.cache_enabled = false;
  intcomp::IndexService overlay(live->Snapshot(), pool, no_cache);
  std::vector<double> overlay_us;
  std::vector<uint32_t> rows;
  for (const QueryPlan& plan : plans) {
    overlay_us.push_back(1e3 * TimeCallMs(tracer, "service.overlay_query", [&] {
      (void)overlay.Query(plan, &rows);
    }));
  }
  report->Metric("service.overlay_query_us", Median(overlay_us), "us");
}

void ReportCacheDelta(Report* report, const intcomp::ServiceStats& before,
                      const intcomp::ServiceStats& after) {
  const double hits = after.cache.hits - before.cache.hits;
  const double probes = std::max(hits + after.cache.misses - before.cache.misses, 1.0);
  const double stale = after.cache.stale_dropped - before.cache.stale_dropped;
  report->Metric("service.cache_hit_frac", hits / probes, "frac");
  report->Metric("service.cache_stale_frac", stale / probes, "frac");
}

void ProbeNet(const LayerContext& ctx) {
  Tracer* tr = ctx.tracer;
  Report* rep = ctx.report;
  intcomp::net::QueryClient client;
  rep->Check(client.Connect("127.0.0.1", ctx.port).ok(), "probe connect",
             "net probe client");

  std::vector<double> ping_us;
  bool pings_ok = true;
  for (int i = 0; i < 300; ++i) {
    const double ms = TimeCallMs(
        tr, "net.ping", [&] { pings_ok = client.Ping().ok() && pings_ok; });
    ping_us.push_back(ms * 1e3);
  }
  rep->Check(pings_ok, "probe pings", "300 kPing round trips");
  rep->Metric("net.ping_rtt_us", Median(ping_us), "us");

  // Request path: frame encode, incremental decode, payload parse.
  const size_t n_texts = std::min<size_t>(ctx.texts.size(), 512);
  std::vector<uint8_t> frame, payload;
  intcomp::Status error;
  const double codec_ns = TimeLoopNs(tr, "net.request_codec", 30, [&] {
    for (size_t i = 0; i < n_texts; ++i) {
      intcomp::net::QueryRequest req;
      req.plan_text = ctx.texts[i];
      frame.clear();
      intcomp::net::EncodeRequestFrame(req, &frame);
      intcomp::net::FrameDecoder decoder;
      decoder.Feed(frame.data(), frame.size());
      decoder.Next(&payload, &error);
      intcomp::net::QueryRequest parsed;
      (void)intcomp::net::ParseRequestPayload(payload, 1 << 20, &parsed);
    }
  });
  rep->Metric("net.request_codec_ns", codec_ns / n_texts, "ns");

  // Response path, as the server and client run it per reply: wire-codec
  // encode + serialize + frame on one side, frame parse + checked
  // deserialize + decode on the other.
  const intcomp::Codec* vb = intcomp::FindCodec("VB");
  std::vector<std::vector<uint32_t>> results;
  uint64_t total_rows = 0;
  for (size_t i = 0; i < std::min<size_t>(ctx.fresh.size(), 64); ++i) {
    std::vector<uint32_t> rows;
    if (ctx.service->Query(ctx.fresh[i], &rows).ok()) {
      total_rows += rows.size();
      results.push_back(std::move(rows));
    }
  }
  total_rows = std::max<uint64_t>(total_rows, 1);
  const uint64_t domain = ctx.snapshot->NumRows();
  std::vector<std::vector<uint8_t>> frames(results.size());
  const double enc_ns = TimeLoopNs(tr, "net.response_encode", 30, [&] {
    for (size_t i = 0; i < results.size(); ++i) {
      intcomp::net::QueryResponse resp;
      const auto set = vb->Encode(results[i], domain);
      resp.has_rows = true;
      resp.codec_name = vb->Name();
      resp.domain = domain;
      vb->Serialize(*set, &resp.image);
      frames[i].clear();
      intcomp::net::EncodeResponseFrame(resp, &frames[i]);
    }
  });
  rep->Metric("net.response_encode_ns_per_row", enc_ns / total_rows, "ns/row");
  std::vector<uint32_t> decoded;
  const double parse_ns = TimeLoopNs(tr, "net.response_parse", 30, [&] {
    for (const auto& f : frames) {
      intcomp::net::QueryResponse resp;
      const std::span<const uint8_t> body(f.data() + intcomp::net::kFrameHeaderBytes,
                                          f.size() - intcomp::net::kFrameHeaderBytes);
      (void)intcomp::net::ParseResponsePayload(body, &resp);
      auto set = vb->DeserializeChecked(resp.image, resp.domain);
      if (set.ok()) vb->Decode(*set.value(), &decoded);
    }
  });
  rep->Metric("net.response_parse_ns_per_row", parse_ns / total_rows, "ns/row");

  // Wire overhead: the same (cached) plans through the client and in
  // process, interleaved so both see the same cache state.
  std::vector<double> wire_ms, local_ms;
  std::vector<uint32_t> rows;
  const size_t n_over = std::min<size_t>(ctx.fresh.size(), 200);
  for (size_t i = 0; i < n_over; ++i) {
    const std::string text = intcomp::PlanToText(ctx.fresh[i]);
    for (int warm = 0; warm < 2; ++warm) (void)ctx.service->Query(ctx.fresh[i], &rows);
    local_ms.push_back(TimeCallMs(tr, "service.query", [&] {
      (void)ctx.service->Query(ctx.fresh[i], &rows);
    }));
    wire_ms.push_back(TimeCallMs(tr, "net.query", [&] {
      (void)client.Query(text, 0, &rows);
    }));
  }
  rep->Metric("net.wire_overhead_us", (Mean(wire_ms) - Mean(local_ms)) * 1e3,
              "us");
}

void ProbeService(const LayerContext& ctx) {
  Tracer* tr = ctx.tracer;
  Report* rep = ctx.report;
  const size_t n = std::min<size_t>(ctx.fresh.size(), 200);
  const std::string sig(ctx.snapshot->CodecSignature());

  const double key_ns = TimeLoopNs(tr, "service.cache_key", 30, [&] {
    for (size_t i = 0; i < n; ++i) {
      const QueryPlan canon = intcomp::CanonicalizePlan(ctx.fresh[i]);
      const std::string key = intcomp::PlanCacheKey(sig, canon);
      if (key.empty()) rep->Check(false, "cache key", "empty key");
    }
  });
  rep->Metric("service.cache_key_ns", key_ns / n, "ns");

  // Fresh plans through the workload's service: the first touch misses,
  // the second is admitted by the doorkeeper, the third hits. Beside them,
  // the same plan serially per shard (no pool, no cache).
  std::vector<double> miss_ms, hit_ms, shard_ms;
  std::vector<uint32_t> rows, part;
  intcomp::ScratchArena arena;
  uint64_t inputs = 0;
  for (size_t i = 0; i < n; ++i) {
    const QueryPlan& plan = ctx.fresh[i];
    miss_ms.push_back(TimeCallMs(tr, "service.query.miss",
                                 [&] { (void)ctx.service->Query(plan, &rows); }));
    (void)ctx.service->Query(plan, &rows);
    hit_ms.push_back(TimeCallMs(tr, "service.query.hit",
                                [&] { (void)ctx.service->Query(plan, &rows); }));
    const std::vector<size_t> leaves = Leaves(plan);
    for (size_t leaf : leaves) inputs += ctx.data->lists[leaf].size();
    double sum = 0;
    for (size_t s = 0; s < ctx.snapshot->NumShards(); ++s) {
      auto sets = ctx.snapshot->PlanSets(s, leaves);
      if (!sets.ok()) {
        rep->Check(false, "probe PlanSets", sets.status().message());
        continue;
      }
      sum += TimeCallMs(tr, "core.evaluate_plan", [&] {
        intcomp::EvaluatePlan(ctx.snapshot->codec(), plan, sets.value(), &arena,
                              &part);
      });
    }
    shard_ms.push_back(sum);
  }
  rep->Metric("service.query_us.miss", Median(miss_ms) * 1e3, "us");
  rep->Metric("service.query_us.hit", Median(hit_ms) * 1e3, "us");
  const double svc = Mean(miss_ms) * n, serial = Mean(shard_ms) * n;
  rep->Metric("service.fanout_overhead_frac", (svc - serial) / svc, "frac");
  rep->Metric("core.plan_eval_ns_per_int",
              serial * 1e6 / std::max<uint64_t>(inputs, 1), "ns/int");

  // Cache probe alone, on the keys just admitted.
  intcomp::ResultCache* cache = ctx.service->Cache();
  if (cache != nullptr) {
    std::vector<std::string> keys;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(intcomp::PlanCacheKey(sig, ctx.fresh[i]));
    }
    uint64_t got_rows = 0;
    const double get_ns = TimeLoopNs(tr, "service.cache_get", 30, [&] {
      got_rows = 0;
      for (const std::string& k : keys) {
        if (cache->Get(k, &rows)) got_rows += rows.size();
      }
    });
    rep->Metric("service.cache_get_ns_per_row",
                get_ns / std::max<uint64_t>(got_rows, 1), "ns/row");
  }
}

void ProbeCodecs(const LayerContext& ctx) {
  Tracer* tr = ctx.tracer;
  Report* rep = ctx.report;
  const uint64_t domain = ctx.data->num_rows;
  // Two lists of every density band.
  std::vector<const std::vector<uint32_t>*> sample;
  for (size_t l = 0; l < std::min<size_t>(16, ctx.data->lists.size()); ++l) {
    sample.push_back(&ctx.data->lists[l]);
  }
  struct Named {
    const char* codec;
    const char* metric;
  };
  const Named codecs[] = {{"Roaring", "bitmap.roaring"},
                          {"EWAH", "bitmap.ewah"},
                          {"SIMDPforDelta*", "invlist.simdpfordelta_star"},
                          {"PEF", "invlist.pef"}};
  std::vector<uint32_t> out;
  intcomp::ScratchArena arena;
  for (const Named& nc : codecs) {
    const intcomp::Codec* codec = intcomp::FindCodec(nc.codec);
    std::vector<std::unique_ptr<intcomp::CompressedSet>> sets;
    uint64_t ints = 0, pair_ints = 0;
    for (const auto* l : sample) {
      sets.push_back(codec->Encode(*l, domain));
      ints += l->size();
    }
    for (size_t i = 0; i + 1 < sets.size(); i += 2) {
      pair_ints += sample[i]->size() + sample[i + 1]->size();
    }
    const double dec = TimeLoopNs(tr, "codec.decode", 20, [&] {
      for (const auto& s : sets) codec->Decode(*s, &out);
    });
    const double and_ns = TimeLoopNs(tr, "codec.and", 20, [&] {
      for (size_t i = 0; i + 1 < sets.size(); i += 2) {
        const intcomp::CompressedSet* pair[] = {sets[i].get(), sets[i + 1].get()};
        intcomp::IntersectSets(*codec, pair, &arena, &out);
      }
    });
    const double or_ns = TimeLoopNs(tr, "codec.or", 20, [&] {
      for (size_t i = 0; i + 1 < sets.size(); i += 2) {
        const intcomp::CompressedSet* pair[] = {sets[i].get(), sets[i + 1].get()};
        intcomp::UnionSets(*codec, pair, &arena, &out);
      }
    });
    const std::string m = nc.metric;
    rep->Metric(m + ".decode_ns_per_int", dec / ints, "ns/int");
    rep->Metric(m + ".and_ns_per_int", and_ns / pair_ints, "ns/int");
    rep->Metric(m + ".or_ns_per_int", or_ns / pair_ints, "ns/int");
  }

  // Planner: per-list codec census, and mixed-codec pairs from shard 0.
  const intcomp::IndexSnapshot& snap = *ctx.snapshot;
  std::vector<size_t> all(snap.NumLists());
  for (size_t l = 0; l < all.size(); ++l) all[l] = l;
  std::map<std::string, double> share;
  double total = 0;
  std::vector<intcomp::TaggedSet> tagged;
  std::vector<uint64_t> sizes;
  const bool planner = snap.codec().Name() == "Planner";
  for (size_t s = 0; s < snap.NumShards(); ++s) {
    auto sets = snap.PlanSets(s, all);
    if (!sets.ok()) {
      rep->Check(false, "probe PlanSets", sets.status().message());
      return;
    }
    for (size_t l = 0; l < all.size(); ++l) {
      share[std::string(snap.codec().SetCodecName(*sets.value()[l]))] += 1;
      total += 1;
      if (planner && s == 0) {
        const auto& ps =
            static_cast<const intcomp::planner::PlannerCodec::Set&>(*sets.value()[l]);
        tagged.push_back({ps.codec, ps.inner.get()});
        sizes.push_back(ps.Cardinality());
      }
    }
  }
  for (const Named& nc : codecs) {
    std::string name = nc.metric;
    name = "planner.list_share." + name.substr(name.find('.') + 1);
    rep->Metric(name, share[nc.codec] / total, "frac");
  }
  rep->Check(planner, "planner index", std::string(snap.codec().Name()));
  std::vector<std::pair<size_t, size_t>> mixed;
  for (size_t i = 0; i < tagged.size() && mixed.size() < 48; ++i) {
    for (size_t j = i + 1; j < tagged.size() && mixed.size() < 48; j += 7) {
      if (tagged[i].codec != tagged[j].codec) mixed.push_back({i, j});
    }
  }
  rep->Check(!mixed.empty(), "mixed-codec pairs", std::to_string(mixed.size()));
  if (mixed.empty()) return;
  const intcomp::planner::CostModel& model = intcomp::planner::CostModel::Default();
  uint64_t mixed_ints = 0;
  for (auto [i, j] : mixed) mixed_ints += sizes[i] + sizes[j];
  const double and_ns = TimeLoopNs(tr, "planner.mixed_and", 30, [&] {
    for (auto [i, j] : mixed) {
      const intcomp::TaggedSet pair[] = {tagged[i], tagged[j]};
      intcomp::planner::PlannedIntersectSets(
          pair, intcomp::planner::SetOpStrategy::kAuto, model, &arena, &out);
    }
  });
  rep->Metric("planner.mixed_and_ns_per_int", and_ns / mixed_ints, "ns/int");
  size_t merges = 0;  // consumed below so the calls cannot be elided
  const double choose_ns = TimeLoopNs(tr, "planner.choose", 10, [&] {
    for (auto [i, j] : mixed) {
      merges += intcomp::planner::ChoosePairStrategy(tagged[i], tagged[j], model) ==
                intcomp::planner::SetOpStrategy::kDecodeMerge;
    }
  });
  std::printf("planner.choose picked decode-merge %zu times\n", merges);
  rep->Metric("planner.choose_ns", choose_ns / mixed.size(), "ns");
}

PoolCounters PoolCounters::Read(const intcomp::ThreadPool& pool) {
  PoolCounters c;
  for (size_t w = 0; w < pool.NumWorkers(); ++w) {
    c.busy_ns += pool.BusyNs(w);
    c.idle_ns += pool.IdleNs(w);
    c.steals += pool.Steals(w);
    c.tasks += pool.TasksRun(w);
  }
  return c;
}

void ReportPoolDelta(Report* report, const PoolCounters& before,
                     const PoolCounters& after) {
  const double busy = static_cast<double>(after.busy_ns - before.busy_ns);
  const double idle = static_cast<double>(after.idle_ns - before.idle_ns);
  const double tasks = static_cast<double>(after.tasks - before.tasks);
  report->Metric("engine.busy_frac", busy / std::max(busy + idle, 1.0), "frac");
  report->Metric("engine.steals_per_task",
                 (after.steals - before.steals) / std::max(tasks, 1.0),
                 "count");
}

NoopSampler::NoopSampler(intcomp::ThreadPool* pool, size_t shards,
                         Tracer* tracer) {
  thread_ = std::thread([this, pool, shards, tracer] {
    while (!stop_.load()) {
      const double ms = TimeCallMs(tracer, "engine.parallelfor_noop", [&] {
        pool->ParallelFor(0, shards, [](size_t, size_t) {});
      });
      samples_us_.push_back(ms * 1e3);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

NoopSampler::~NoopSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void NoopSampler::Publish(Report* report) {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  report->Metric("engine.parallelfor_noop_us", Median(samples_us_), "us");
}

}  // namespace perfbench

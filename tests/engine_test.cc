// Tests for the batch query engine: the work-stealing pool, the batch
// executor's determinism guarantee (1 thread == N threads == serial
// EvaluatePlan, for every codec), stats accounting across re-used pools,
// and a small-query stress run to shake out races. This binary is the one
// the INTCOMP_SANITIZE=thread CI job exercises.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "common/usable_cpus.h"
#include "core/registry.h"
#include "engine/batch_executor.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

constexpr size_t kStressThreads = 8;  // the sanitizer job's thread count

struct Workload {
  std::vector<std::vector<uint32_t>> lists;
  std::vector<QueryPlan> plans;
  uint64_t domain = 0;
};

// A mixed AND/OR plan load over one distribution's lists: pairwise ANDs
// with the Table-1 size skew, plus SSB-style (a OR b) AND c shapes.
Workload MakeWorkload(const char* dist, size_t nlists, size_t nplans) {
  Workload w;
  w.domain = 1 << 20;
  for (size_t i = 0; i < nlists; ++i) {
    const size_t n = 200 + 600 * (i % 4);
    const uint64_t seed = 1000 + i;
    if (std::string_view(dist) == "uniform") {
      w.lists.push_back(GenerateUniform(n, w.domain, seed));
    } else if (std::string_view(dist) == "zipf") {
      w.lists.push_back(GenerateZipf(n, w.domain, kPaperZipfSkew, seed));
    } else {
      w.lists.push_back(GenerateMarkov(n, w.domain, kPaperMarkovClustering, seed));
    }
  }
  Prng rng(42);
  for (size_t q = 0; q < nplans; ++q) {
    const size_t a = rng.NextBounded(nlists);
    const size_t b = rng.NextBounded(nlists);
    const size_t c = rng.NextBounded(nlists);
    switch (q % 3) {
      case 0:
        w.plans.push_back(QueryPlan::And({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}));
        break;
      case 1:
        w.plans.push_back(QueryPlan::Or({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}));
        break;
      default:
        w.plans.push_back(QueryPlan::And(
            {QueryPlan::Or({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}),
             QueryPlan::Leaf(c)}));
        break;
    }
  }
  return w;
}

struct EncodedWorkload {
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
};

EncodedWorkload Encode(const Codec& codec, const Workload& w) {
  EncodedWorkload e;
  for (const auto& l : w.lists) {
    e.sets.push_back(codec.Encode(l, w.domain));
    e.ptrs.push_back(e.sets.back().get());
  }
  return e;
}

// ---------------------------------------------------------------- ThreadPool

// ThreadPool(0) sizes itself from the affinity mask: one worker under a
// one-CPU mask (as under `taskset -c 0`), whatever the machine has.
TEST(ThreadPoolTest, ZeroThreadsFollowsTheAffinityMask) {
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.NumWorkers(), UsableCpus());
  }
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.NumWorkers(), 1u);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> ran(kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&ran, i](size_t) { ran[i].fetch_add(1); });
  }
  pool.Wait();
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeOnce) {
  ThreadPool pool(kStressThreads);
  std::vector<uint32_t> hits(10007, 0);  // one slot per index: no two tasks
                                         // share an index, so plain writes
  pool.ParallelFor(100, 10007, [&](size_t i, size_t) { hits[i] += 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i >= 100 ? 1u : 0u) << "index " << i;
  }
  pool.ParallelFor(5, 5, [&](size_t, size_t) { FAIL() << "empty range ran"; });
}

TEST(ThreadPoolTest, WaitIsReusableAcrossGenerations) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&sum](size_t) { sum.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(sum.load(), static_cast<uint64_t>((round + 1) * 50));
  }
}

TEST(ThreadPoolTest, TasksSeeTheExecutingWorkerIndex) {
  ThreadPool pool(4);
  std::atomic<uint64_t> bad{0};
  pool.ParallelFor(0, 4000, [&](size_t, size_t worker) {
    if (worker >= pool.NumWorkers()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0u);
}

// ------------------------------------------------------------- determinism

class EngineDeterminismTest : public ::testing::TestWithParam<const Codec*> {};

TEST_P(EngineDeterminismTest, BatchMatchesSerialOnEveryDistribution) {
  const Codec& codec = *GetParam();
  for (const char* dist : {"uniform", "zipf", "markov"}) {
    SCOPED_TRACE(dist);
    const Workload w = MakeWorkload(dist, 10, 60);
    const EncodedWorkload e = Encode(codec, w);

    // Serial reference, via the arena-free legacy entry point.
    std::vector<std::vector<uint32_t>> ref;
    ref.reserve(w.plans.size());
    for (const QueryPlan& p : w.plans) {
      ref.push_back(EvaluatePlan(codec, p, e.ptrs));
    }

    for (size_t threads : {size_t{1}, kStressThreads}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      BatchExecutor exec(&pool);
      const QueryBatch batch{.codec = &codec, .plans = w.plans, .sets = e.ptrs};
      // Two rounds through the same executor: warm arenas must not change
      // results.
      for (int round = 0; round < 2; ++round) {
        const auto got = exec.Execute(batch);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t q = 0; q < ref.size(); ++q) {
          ASSERT_EQ(got[q], ref[q]) << "query " << q << " round " << round;
        }
      }
    }
  }
}

std::string CodecName(const ::testing::TestParamInfo<const Codec*>& info) {
  std::string name(info.param->Name());
  for (char& c : name) {
    if (c == '*') c = 'S';
  }
  return name;
}

std::vector<const Codec*> AllPlusExtensions() {
  // Shared roster (core/registry.h): paper methods + extensions, so this
  // suite can never drift from the other differential suites.
  return {AllCodecsWithExtensions().begin(), AllCodecsWithExtensions().end()};
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, EngineDeterminismTest,
                         ::testing::ValuesIn(AllPlusExtensions()), CodecName);

// ------------------------------------------------------------------ stress

TEST(EngineStressTest, TenThousandTinyQueries) {
  // 10k near-empty queries: task scheduling dominates the work, which is
  // exactly where submission/steal/quiescence races would surface. Run
  // under INTCOMP_SANITIZE=thread this is the engine's race detector.
  const Codec* codec = FindCodec("Roaring");
  ASSERT_NE(codec, nullptr);
  const uint64_t domain = 1 << 16;
  Prng rng(7);
  std::vector<std::vector<uint32_t>> lists;
  for (size_t i = 0; i < 64; ++i) {
    lists.push_back(RandomSortedList(1 + rng.NextBounded(8), domain, 500 + i));
  }
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (const auto& l : lists) {
    sets.push_back(codec->Encode(l, domain));
    ptrs.push_back(sets.back().get());
  }
  std::vector<QueryPlan> plans;
  plans.reserve(10000);
  for (size_t q = 0; q < 10000; ++q) {
    const size_t a = rng.NextBounded(lists.size());
    const size_t b = rng.NextBounded(lists.size());
    plans.push_back(q % 2 == 0
                        ? QueryPlan::And({QueryPlan::Leaf(a), QueryPlan::Leaf(b)})
                        : QueryPlan::Or({QueryPlan::Leaf(a), QueryPlan::Leaf(b)}));
  }

  ThreadPool pool(kStressThreads);
  BatchExecutor exec(&pool);
  BatchReport report;
  const auto got = exec.Execute({.codec = codec, .plans = plans, .sets = ptrs}, &report);

  ASSERT_EQ(got.size(), plans.size());
  for (size_t q = 0; q < plans.size(); ++q) {
    const auto& a = lists[plans[q].children[0].leaf];
    const auto& b = lists[plans[q].children[1].leaf];
    const auto ref = q % 2 == 0 ? RefIntersect(a, b) : RefUnion(a, b);
    ASSERT_EQ(got[q], ref) << "query " << q;
  }
  EXPECT_EQ(report.Totals().queries, plans.size());
}

// --------------------------------------------------------- engine counters

TEST(EngineCountersTest, CountersSumAcrossWorkers) {
  const Codec* codec = FindCodec("WAH");
  ASSERT_NE(codec, nullptr);
  const Workload w = MakeWorkload("uniform", 8, 100);
  const EncodedWorkload e = Encode(*codec, w);

  ThreadPool pool(4);
  BatchExecutor exec(&pool);
  BatchReport report;
  const auto results = exec.Execute({.codec = codec, .plans = w.plans, .sets = e.ptrs}, &report);

  ASSERT_EQ(report.NumWorkers(), pool.NumWorkers());
  const WorkerCounters totals = report.Totals();
  EXPECT_EQ(totals.queries, w.plans.size());
  size_t result_ints = 0;
  for (const auto& r : results) result_ints += r.size();
  EXPECT_EQ(totals.result_ints, result_ints);
  uint64_t queries_by_worker = 0;
  for (const auto& c : report.per_worker) queries_by_worker += c.queries;
  EXPECT_EQ(queries_by_worker, totals.queries);
  EXPECT_GT(totals.busy_ns, 0u);
  const std::string table = report.ToString();
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(EngineCountersTest, ReusedPoolDoesNotDoubleCount) {
  // Two consecutive batches through the same pool+executor: each report
  // must hold only its own batch's numbers, and the steal/busy/idle deltas
  // must not accumulate the first batch's totals.
  const Codec* codec = FindCodec("SIMDBP128");
  ASSERT_NE(codec, nullptr);
  const Workload w = MakeWorkload("markov", 8, 80);
  const EncodedWorkload e = Encode(*codec, w);

  ThreadPool pool(4);
  BatchExecutor exec(&pool);
  const QueryBatch batch{.codec = codec, .plans = w.plans, .sets = e.ptrs};
  BatchReport first, second;
  const auto r1 = exec.Execute(batch, &first);
  const auto r2 = exec.Execute(batch, &second);
  ASSERT_EQ(r1, r2);

  EXPECT_EQ(first.Totals().queries, w.plans.size());
  EXPECT_EQ(second.Totals().queries, w.plans.size());
  EXPECT_EQ(second.Totals().result_ints, first.Totals().result_ints);
  // Busy time is per-batch: batch 2's total can't include batch 1's too.
  // (Generous 4x bound — scheduling noise, but not 2-batches-in-one.)
  EXPECT_LT(second.Totals().busy_ns,
            4 * std::max<uint64_t>(first.Totals().busy_ns, 1));

  // The scratch arenas persist across batches, so the buffer population is
  // bounded by workers x plan depth — not by query count. (An exact
  // across-batch equality would be flaky: stealing may hand a different
  // worker the deepest plan on a later run and warm that one arena up.)
  for (int round = 0; round < 10; ++round) exec.Execute(batch, nullptr);
  EXPECT_LE(exec.ScratchBuffers(), pool.NumWorkers() * 8)
      << "scratch buffers scale with queries, not workers: reuse is broken";
}

// ------------------------------------------------------- fault containment

TEST(EvaluatePlanCheckedTest, ValidatesShapeAndMatchesTrustedPath) {
  const Codec& codec = *FindCodec("VB");
  const uint64_t domain = 1 << 16;
  auto la = RandomSortedList(2000, domain, 31);
  auto lb = RandomSortedList(3000, domain, 32);
  auto sa = codec.Encode(la, domain);
  auto sb = codec.Encode(lb, domain);
  std::vector<const CompressedSet*> sets = {sa.get(), sb.get()};

  ScratchArena arena;
  std::vector<uint32_t> out;
  const auto plan =
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(1)});
  ASSERT_TRUE(
      EvaluatePlanChecked(codec, plan, sets, nullptr, &arena, &out).ok());
  std::vector<uint32_t> oracle;
  std::set_intersection(la.begin(), la.end(), lb.begin(), lb.end(),
                        std::back_inserter(oracle));
  EXPECT_EQ(out, oracle);
  EXPECT_EQ(EvaluatePlan(codec, plan, sets), oracle);

  // Invalid plans: the checked entry reports kInvalidArgument, and the
  // trusted entry (the same evaluator) returns an empty result instead of
  // reading past `sets` or an empty child list.
  std::vector<const CompressedSet*> holed = {sa.get(), nullptr};
  struct Invalid {
    QueryPlan plan;
    const std::vector<const CompressedSet*>* sets;
  };
  const Invalid invalid[] = {
      {QueryPlan::Leaf(7), &sets},  // leaf index out of range
      {QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(7)}), &sets},
      // Null set slot (an image that failed DeserializeChecked upstream).
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}), &holed},
      // Operator nodes with no children.
      {QueryPlan::And({}), &sets},
      {QueryPlan::Or({}), &sets},
      {QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Or({})}), &sets},
  };
  for (size_t i = 0; i < std::size(invalid); ++i) {
    SCOPED_TRACE(i);
    out = {1, 2, 3};
    Status st = EvaluatePlanChecked(codec, invalid[i].plan, *invalid[i].sets,
                                    nullptr, &arena, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.empty());
    out = {1, 2, 3};
    EvaluatePlan(codec, invalid[i].plan, *invalid[i].sets, &arena, &out);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(EvaluatePlan(codec, invalid[i].plan, *invalid[i].sets).empty());
  }

  // A pre-tripped token cancels before any work.
  CancellationToken cancelled;
  cancelled.Cancel();
  Status st = EvaluatePlanChecked(codec, plan, sets, &cancelled, &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // An already-elapsed deadline reports kDeadlineExceeded.
  CancellationToken past;
  past.SetDeadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  st = EvaluatePlanChecked(codec, plan, sets, &past, &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(FaultContainmentTest, BadQueriesFailAloneAndHealthyResultsAreIdentical) {
  // One batch holding: healthy queries, a query over a missing (null) set
  // slot — the engine's representation of a set whose byte image failed
  // DeserializeChecked — a query with an already-impossible deadline, and a
  // plan referencing an out-of-range leaf. The batch must complete; each
  // bad query reports its own Status; healthy results are bit-identical to
  // serial EvaluatePlan at 1 and N threads.
  const Codec& codec = *FindCodec("Roaring");
  const uint64_t domain = 1 << 18;
  std::vector<std::vector<uint32_t>> lists;
  for (size_t i = 0; i < 6; ++i) {
    lists.push_back(RandomSortedList(4000 + 700 * i, domain, 600 + i));
  }
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (const auto& l : lists) {
    sets.push_back(codec.Encode(l, domain));
    ptrs.push_back(sets.back().get());
  }
  ptrs.push_back(nullptr);  // slot 6: the corrupt set

  std::vector<QueryPlan> plans;
  plans.push_back(QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}));
  plans.push_back(QueryPlan::And({QueryPlan::Leaf(2), QueryPlan::Leaf(6)}));
  plans.push_back(QueryPlan::Or({QueryPlan::Leaf(2), QueryPlan::Leaf(3)}));
  plans.push_back(QueryPlan::And(  // deadline victim (1 ns)
      {QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)}),
       QueryPlan::Leaf(4)}));
  plans.push_back(QueryPlan::Leaf(99));  // out of range
  plans.push_back(QueryPlan::And(
      {QueryPlan::Or({QueryPlan::Leaf(4), QueryPlan::Leaf(5)}),
       QueryPlan::Leaf(0)}));
  const std::vector<uint64_t> deadlines = {0, 0, 0, 1, 0, 0};
  const std::vector<size_t> healthy = {0, 2, 5};

  std::vector<std::vector<uint32_t>> ref(plans.size());
  for (size_t q : healthy) ref[q] = EvaluatePlan(codec, plans[q], ptrs);

  std::vector<std::vector<std::vector<uint32_t>>> per_thread_results;
  for (size_t threads : {size_t{1}, kStressThreads}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    BatchExecutor exec(&pool);
    const QueryBatch batch{.codec = &codec,
                           .plans = plans,
                           .sets = ptrs,
                           .deadlines_ns = deadlines};
    BatchReport report;
    const auto results = exec.Execute(batch, &report);
    ASSERT_EQ(results.size(), plans.size());
    ASSERT_EQ(report.per_query.size(), plans.size());

    for (size_t q : healthy) {
      EXPECT_TRUE(report.per_query[q].ok()) << "query " << q;
      EXPECT_EQ(results[q], ref[q]) << "query " << q;
    }
    EXPECT_EQ(report.per_query[1].code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(report.per_query[3].code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(report.per_query[4].code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(results[1].empty());
    EXPECT_TRUE(results[3].empty());
    EXPECT_TRUE(results[4].empty());

    const WorkerCounters totals = report.Totals();
    EXPECT_EQ(totals.queries, plans.size());
    EXPECT_EQ(totals.ok, healthy.size());
    EXPECT_EQ(totals.rejected, 2u);
    EXPECT_EQ(totals.timed_out, 1u);
    EXPECT_EQ(totals.cancelled, 0u);
    EXPECT_EQ(totals.failed, 0u);
    EXPECT_NE(report.ToString().find("rejected"), std::string::npos);
    per_thread_results.push_back(results);
  }
  // Bit-identical across thread counts, including the failed slots.
  EXPECT_EQ(per_thread_results[0], per_thread_results[1]);
}

TEST(FaultContainmentTest, BatchWideCancellationStopsEveryQuery) {
  const Codec& codec = *FindCodec("WAH");
  const Workload w = MakeWorkload("uniform", 8, 64);
  const EncodedWorkload e = Encode(codec, w);
  ThreadPool pool(4);
  BatchExecutor exec(&pool);
  CancellationToken cancel;
  cancel.Cancel();  // tripped before submission, e.g. client disconnected
  BatchReport report;
  const auto results = exec.Execute({.codec = &codec,
                                     .plans = w.plans,
                                     .sets = e.ptrs,
                                     .cancel = &cancel},
                                    &report);
  ASSERT_EQ(report.per_query.size(), w.plans.size());
  for (size_t q = 0; q < w.plans.size(); ++q) {
    EXPECT_EQ(report.per_query[q].code(), StatusCode::kCancelled);
    EXPECT_TRUE(results[q].empty());
  }
  EXPECT_EQ(report.Totals().cancelled, w.plans.size());

  // The same batch without the token runs to completion.
  BatchReport clean;
  exec.Execute({.codec = &codec, .plans = w.plans, .sets = e.ptrs}, &clean);
  EXPECT_EQ(clean.Totals().ok, w.plans.size());
}

TEST(EngineCountersTest, RegistryCountersCaptureWorkShape) {
  // PforDelta is a blocked codec: the 3-leaf ANDs push their SvS tail
  // through the skip cursor, so the executor's engine.* counters must see
  // block traffic, and the plain-leaf decodes feed bytes_decoded.
  const Codec* codec = FindCodec("PforDelta");
  ASSERT_NE(codec, nullptr);
  const uint64_t domain = 1 << 20;
  std::vector<std::vector<uint32_t>> lists;
  for (size_t i = 0; i < 6; ++i) {
    lists.push_back(RandomSortedList(5000 + 3000 * i, domain, 900 + i));
  }
  std::vector<std::unique_ptr<CompressedSet>> sets;
  std::vector<const CompressedSet*> ptrs;
  for (const auto& l : lists) {
    sets.push_back(codec->Encode(l, domain));
    ptrs.push_back(sets.back().get());
  }
  std::vector<QueryPlan> plans;
  constexpr size_t kAnd3 = 12;
  constexpr size_t kLeafQ = 4;
  Prng rng(5);
  for (size_t q = 0; q < kAnd3; ++q) {
    plans.push_back(QueryPlan::And({QueryPlan::Leaf(rng.NextBounded(6)),
                                    QueryPlan::Leaf(rng.NextBounded(6)),
                                    QueryPlan::Leaf(rng.NextBounded(6))}));
  }
  for (size_t q = 0; q < kLeafQ; ++q) {
    plans.push_back(QueryPlan::Leaf(q));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.SetEnabled(true);
  ThreadPool pool(4);
  BatchExecutor exec(&pool);
  BatchReport report;
  exec.Execute({.codec = codec, .plans = plans, .sets = ptrs}, &report);
  reg.SetEnabled(false);

  EXPECT_EQ(report.Totals().ok, plans.size());
  EXPECT_EQ(reg.CounterValue("engine.lists_touched"), 3 * kAnd3 + kLeafQ);
  EXPECT_GT(reg.CounterValue("engine.bytes_decoded"), 0u);
  EXPECT_GT(reg.CounterValue("engine.blocks_loaded"), 0u);
  uint64_t kernels = 0;
  for (const char* field : {"scalar_merge", "simd_merge", "scalar_gallop",
                            "simd_gallop", "scalar_union", "simd_union",
                            "block_probes"}) {
    kernels += reg.CounterValue(std::string("kernel.PforDelta.") + field);
  }
  EXPECT_GT(kernels, 0u);
  EXPECT_EQ(kernels, report.Totals().kernels.Total());
  reg.Reset();
}

TEST(ObservabilityTest, TracingAndMetricsDoNotPerturbResults) {
  // The determinism guarantee must survive observability: sampled tracing
  // plus the metrics registry enabled, at 1 and N threads, bit-identical to
  // the reference computed with everything off.
  const Codec* codec = FindCodec("PforDelta");
  ASSERT_NE(codec, nullptr);
  const Workload w = MakeWorkload("zipf", 10, 60);
  const EncodedWorkload e = Encode(*codec, w);

  obs::SetTraceSampling(0);
  obs::MetricsRegistry::Global().SetEnabled(false);
  std::vector<std::vector<uint32_t>> ref;
  ref.reserve(w.plans.size());
  for (const QueryPlan& p : w.plans) {
    ref.push_back(EvaluatePlan(*codec, p, e.ptrs));
  }

  obs::SetTraceSeed(42);
  obs::SetTraceSampling(4);
  obs::MetricsRegistry::Global().Reset();
  obs::MetricsRegistry::Global().SetEnabled(true);
  for (size_t threads : {size_t{1}, kStressThreads}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    BatchExecutor exec(&pool);
    const auto got =
        exec.Execute({.codec = codec, .plans = w.plans, .sets = e.ptrs});
    ASSERT_EQ(got.size(), ref.size());
    for (size_t q = 0; q < ref.size(); ++q) {
      ASSERT_EQ(got[q], ref[q]) << "query " << q;
    }
  }
  // One more run with every root sampled: still bit-identical, and now the
  // rings are guaranteed to hold spans (at 1/4 both batch roots may lose
  // the sampling draw).
  obs::SetTraceSampling(1);
  {
    ThreadPool pool(kStressThreads);
    BatchExecutor exec(&pool);
    const auto got =
        exec.Execute({.codec = codec, .plans = w.plans, .sets = e.ptrs});
    ASSERT_EQ(got.size(), ref.size());
    for (size_t q = 0; q < ref.size(); ++q) {
      ASSERT_EQ(got[q], ref[q]) << "query " << q;
    }
  }
  // The instrumented runs actually recorded: per-codec query latencies in
  // the registry and spans in the rings.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .OpLatency(codec->Name(), obs::OpKind::kQuery)
                ->Count(),
            3 * w.plans.size());
  obs::SetTraceSampling(0);  // quiesce before reading the rings
  EXPECT_FALSE(obs::SnapshotSpans().empty());
  obs::ClearSpans();
  obs::MetricsRegistry::Global().SetEnabled(false);
  obs::MetricsRegistry::Global().Reset();
}

TEST(EngineCountersTest, BusyFractionIsBounded) {
  BatchReport r;
  r.per_worker.assign(2, WorkerCounters{});
  EXPECT_EQ(r.BusyFraction(), 0.0);
  r.per_worker[0].busy_ns = 300;
  r.per_worker[1].idle_ns = 100;
  EXPECT_DOUBLE_EQ(r.BusyFraction(), 0.75);
  WorkerCounters sum = r.Totals();
  EXPECT_EQ(sum.busy_ns, 300u);
  EXPECT_EQ(sum.idle_ns, 100u);
}

}  // namespace
}  // namespace intcomp

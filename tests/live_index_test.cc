// LiveIndex end-to-end tests (src/storage/live_index.h): create / update /
// query / reopen durability, WAL rotation at compaction commit, compacted
// containers byte-identical to a fresh build, torn-tail recovery,
// transient-fault retry on reopen, validation, and result-cache coherence
// across the mutable write path. The adversarial crash campaigns
// live in recovery_fault_test.cc; these tests pin the deterministic
// behaviors down one by one.

#include "storage/live_index.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/query.h"
#include "core/registry.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"
#include "service/shard_router.h"
#include "service/sharded_index.h"
#include "storage/index_writer.h"
#include "storage/mapped_index.h"
#include "test_util.h"

namespace intcomp {
namespace {

using storage::LiveIndex;
using storage::LiveIndexOptions;
using storage::LiveIndexStats;

// Fresh empty directory under the test temp root.
std::string MakeDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  for (const char* f : {LiveIndex::kIndexFile, LiveIndex::kWalFile,
                        LiveIndex::kIndexTmpFile, LiveIndex::kWalTmpFile}) {
    std::remove((dir + "/" + f).c_str());
  }
  return dir;
}

// Decodes the effective global row ids of one list straight off a snapshot
// (no service, no cache — the ground truth the service would serve).
std::vector<uint32_t> ListRows(const IndexSnapshot& snap, uint32_t list) {
  std::vector<uint32_t> out, local;
  const std::vector<size_t> leaves = {list};
  const ShardRouter& router = snap.Router();
  for (size_t s = 0; s < snap.NumShards(); ++s) {
    auto sets = snap.PlanSets(s, leaves);
    EXPECT_TRUE(sets.ok()) << sets.status().ToString();
    if (!sets.ok()) return out;
    local.clear();
    snap.codec().Decode(*sets.value()[list], &local);
    for (uint32_t r : local) {
      out.push_back(r + static_cast<uint32_t>(router.Begin(s)));
    }
  }
  return out;
}

struct BaseFixture {
  uint64_t num_rows = 1024;
  std::vector<std::vector<uint32_t>> lists;
  ShardedIndex Build(const Codec& codec, size_t shards = 2) const {
    return ShardedIndex::Build(codec, lists, num_rows, shards);
  }
};

BaseFixture MakeBase(uint64_t seed) {
  BaseFixture f;
  f.lists.push_back(RandomSortedList(150, f.num_rows, seed));
  f.lists.push_back(RandomSortedList(90, f.num_rows, seed + 1));
  f.lists.push_back(RandomSortedList(40, f.num_rows, seed + 2));
  return f;
}

TEST(LiveIndexTest, UpdatesPersistAcrossReopen) {
  const Codec& codec = *FindCodec("Roaring");
  BaseFixture f = MakeBase(TestSeed(0x11d0));
  const std::string dir = MakeDir("live_reopen");

  const std::vector<uint32_t> ins =
      RandomSortedList(30, f.num_rows, TestSeed(0x11d4));
  const std::vector<uint32_t> del(f.lists[1].begin(), f.lists[1].begin() + 20);
  {
    auto live = LiveIndex::Create(dir, f.Build(codec));
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE((*live)->Insert(0, ins).ok());
    ASSERT_TRUE((*live)->Remove(1, del).ok());
    // Rows passed unsorted with duplicates are canonicalized.
    ASSERT_TRUE((*live)->Insert(2, std::vector<uint32_t>{9, 5, 9, 7}).ok());
    // Empty batches are accepted and change nothing.
    ASSERT_TRUE((*live)->Insert(2, std::vector<uint32_t>{}).ok());

    const LiveIndexStats stats = (*live)->Stats();
    EXPECT_EQ(stats.inserts, 2u);  // the empty batch doesn't count
    EXPECT_EQ(stats.removes, 1u);
    EXPECT_EQ(stats.wal_records, 3u);
    EXPECT_GT(stats.wal_bytes, 0u);
    EXPECT_GT(stats.wal_syncs, 0u);  // default cadence: every record
    EXPECT_EQ(stats.replayed_records, 0u);
    EXPECT_EQ(stats.dirty_lists, 3u);
    ASSERT_TRUE((*live)->Close().ok());
  }

  // Expected post-update lists.
  f.lists[0] = RefUnion(f.lists[0], ins);
  std::vector<uint32_t> kept(f.lists[1].begin() + 20, f.lists[1].end());
  f.lists[1] = kept;
  f.lists[2] = RefUnion(f.lists[2], {5, 7, 9});

  auto reopened = LiveIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const LiveIndexStats stats = (*reopened)->Stats();
  EXPECT_EQ(stats.replayed_records, 3u);
  EXPECT_FALSE(stats.recovered_torn_tail);
  EXPECT_EQ(stats.dirty_lists, 3u);
  auto snap = (*reopened)->Snapshot();
  for (uint32_t l = 0; l < 3; ++l) {
    EXPECT_EQ(ListRows(*snap, l), f.lists[l]) << "list " << l;
  }
}

TEST(LiveIndexTest, CompactionRotatesTheWalAndPreservesState) {
  const Codec& codec = *FindCodec("WAH");
  BaseFixture f = MakeBase(TestSeed(0x11d8));
  const std::string dir = MakeDir("live_compact");

  const std::vector<uint32_t> ins =
      RandomSortedList(50, f.num_rows, TestSeed(0x11d9));
  const std::vector<uint32_t> post =
      RandomSortedList(25, f.num_rows, TestSeed(0x11da));
  {
    auto live = LiveIndex::Create(dir, f.Build(codec));
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->Insert(0, ins).ok());
    ASSERT_TRUE((*live)->Compact().ok());

    LiveIndexStats stats = (*live)->Stats();
    EXPECT_EQ(stats.compactions, 1u);
    EXPECT_EQ(stats.compaction_failures, 0u);
    EXPECT_EQ(stats.delta_rows, 0u);  // all folded into the new base
    EXPECT_EQ(stats.dirty_lists, 0u);

    // Updates keep working on the rotated WAL.
    ASSERT_TRUE((*live)->Insert(1, post).ok());
    ASSERT_TRUE((*live)->Close().ok());
  }

  f.lists[0] = RefUnion(f.lists[0], ins);
  f.lists[1] = RefUnion(f.lists[1], post);

  auto reopened = LiveIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const LiveIndexStats stats = (*reopened)->Stats();
  // The rotated WAL holds the checkpoint marker + the one post-compaction
  // insert; the pre-compaction insert lives in the container now.
  EXPECT_EQ(stats.replayed_records, 2u);
  EXPECT_EQ(stats.dirty_lists, 1u);
  auto snap = (*reopened)->Snapshot();
  for (uint32_t l = 0; l < 3; ++l) {
    EXPECT_EQ(ListRows(*snap, l), f.lists[l]) << "list " << l;
  }

  // A second compaction folds the survivor and empties the WAL again.
  ASSERT_TRUE((*reopened)->Compact().ok());
  EXPECT_EQ((*reopened)->Stats().delta_rows, 0u);
  snap = (*reopened)->Snapshot();
  for (uint32_t l = 0; l < 3; ++l) {
    EXPECT_EQ(ListRows(*snap, l), f.lists[l]) << "list " << l;
  }
}

TEST(LiveIndexTest, RejectsOutOfRangeUpdates) {
  const Codec& codec = *FindCodec("Roaring");
  const BaseFixture f = MakeBase(TestSeed(0x11e0));
  const std::string dir = MakeDir("live_validate");
  auto live = LiveIndex::Create(dir, f.Build(codec));
  ASSERT_TRUE(live.ok());

  EXPECT_EQ((*live)->Insert(3, std::vector<uint32_t>{1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*live)
                ->Insert(0, std::vector<uint32_t>{
                                static_cast<uint32_t>(f.num_rows)})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*live)->Remove(9, std::vector<uint32_t>{1}).code(),
            StatusCode::kInvalidArgument);
  // Nothing was accepted: no WAL records, no deltas.
  const LiveIndexStats stats = (*live)->Stats();
  EXPECT_EQ(stats.wal_records, 0u);
  EXPECT_EQ(stats.delta_rows, 0u);

  ASSERT_TRUE((*live)->Close().ok());
  EXPECT_FALSE((*live)->Insert(0, std::vector<uint32_t>{1}).ok());
  EXPECT_TRUE((*live)->Close().ok());  // idempotent
}

TEST(LiveIndexTest, OpenRetriesTransientMapFaults) {
  fault::ScopedDisarm disarm;
  const Codec& codec = *FindCodec("Roaring");
  const BaseFixture f = MakeBase(TestSeed(0x11e4));
  const std::string dir = MakeDir("live_map_retry");
  {
    auto live = LiveIndex::Create(dir, f.Build(codec));
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->Close().ok());
  }
  // Two transient mmap failures: the default 4-attempt budget absorbs them.
  fault::FaultInjector::Global().ArmTransientFirst(
      2, fault::SiteBit(fault::Site::kMapOpen));
  auto live = LiveIndex::Open(dir);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  fault::FaultInjector::Global().Disarm();
  auto snap = (*live)->Snapshot();
  EXPECT_EQ(ListRows(*snap, 0), f.lists[0]);

  // Beyond the budget the open fails with the transient status.
  ASSERT_TRUE((*live)->Close().ok());
  fault::FaultInjector::Global().ArmTransientFirst(
      16, fault::SiteBit(fault::Site::kMapOpen));
  auto failed = LiveIndex::Open(dir);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

TEST(LiveIndexTest, TornWalTailIsRecoveredAndReported) {
  const Codec& codec = *FindCodec("Roaring");
  BaseFixture f = MakeBase(TestSeed(0x11e8));
  const std::string dir = MakeDir("live_torn");

  const std::vector<uint32_t> first =
      RandomSortedList(20, f.num_rows, TestSeed(0x11e9));
  const std::vector<uint32_t> second =
      RandomSortedList(20, f.num_rows, TestSeed(0x11ea));
  {
    auto live = LiveIndex::Create(dir, f.Build(codec));
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->Insert(0, first).ok());
    ASSERT_TRUE((*live)->Insert(1, second).ok());
    ASSERT_TRUE((*live)->Close().ok());
  }
  // Tear the final record mid-frame, as a crash during the append would.
  const std::string wal = dir + "/" + LiveIndex::kWalFile;
  std::FILE* fp = std::fopen(wal.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 0, SEEK_END);
  const long size = std::ftell(fp);
  std::fclose(fp);
  ASSERT_EQ(::truncate(wal.c_str(), size - 5), 0);

  auto live = LiveIndex::Open(dir);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const LiveIndexStats stats = (*live)->Stats();
  EXPECT_TRUE(stats.recovered_torn_tail);
  EXPECT_EQ(stats.replayed_records, 1u);  // only the first insert survived
  auto snap = (*live)->Snapshot();
  EXPECT_EQ(ListRows(*snap, 0), RefUnion(f.lists[0], first));
  EXPECT_EQ(ListRows(*snap, 1), f.lists[1]);

  // Appending after the truncated tail works and persists.
  ASSERT_TRUE((*live)->Insert(1, second).ok());
  ASSERT_TRUE((*live)->Close().ok());
  auto again = LiveIndex::Open(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)->Stats().recovered_torn_tail);
  snap = (*again)->Snapshot();
  EXPECT_EQ(ListRows(*snap, 1), RefUnion(f.lists[1], second));
}

TEST(LiveIndexTest, OpenFailsCleanlyOnMissingDirectory) {
  auto live = LiveIndex::Open(::testing::TempDir() + "/live_never_created");
  EXPECT_FALSE(live.ok());
}

// A result served from the cache must never survive an update or a
// compaction that changed (or merely republished) the snapshot.
TEST(LiveIndexTest, ServiceCacheNeverServesStaleResultsAcrossUpdates) {
  const Codec& codec = *FindCodec("Roaring");
  BaseFixture f = MakeBase(TestSeed(0x11f0));
  const std::string dir = MakeDir("live_cache");
  auto live = LiveIndex::Create(dir, f.Build(codec));
  ASSERT_TRUE(live.ok());

  ThreadPool pool(2);
  IndexServiceOptions options;
  options.cache.require_second_touch = false;
  IndexService service((*live)->Snapshot(), &pool, options);
  (*live)->AttachService(&service);

  const QueryPlan plan =
      QueryPlan::Or({QueryPlan::Leaf(0), QueryPlan::Leaf(1)});
  std::vector<uint32_t> before;
  ASSERT_TRUE(service.Query(plan, &before).ok());
  std::vector<uint32_t> hit;
  ASSERT_TRUE(service.Query(plan, &hit).ok());
  EXPECT_EQ(hit, before);
  EXPECT_GE(service.Stats().cache.hits, 1u);

  // Mutate a list the plan covers; the next query must see the new rows.
  std::vector<uint32_t> extra;
  for (uint32_t r = 0; extra.size() < 16; ++r) {
    if (!std::binary_search(before.begin(), before.end(), r)) extra.push_back(r);
  }
  ASSERT_TRUE((*live)->Insert(0, extra).ok());
  std::vector<uint32_t> after;
  ASSERT_TRUE(service.Query(plan, &after).ok());
  EXPECT_EQ(after, RefUnion(before, extra));

  // Compaction republishes; the cached post-update result must also retire.
  ASSERT_TRUE((*live)->Compact().ok());
  std::vector<uint32_t> compacted;
  ASSERT_TRUE(service.Query(plan, &compacted).ok());
  EXPECT_EQ(compacted, after);
  ASSERT_TRUE((*live)->Close().ok());
}

// CompactAsync runs the same commit on the shared pool and reports through
// the callback.
TEST(LiveIndexTest, CompactAsyncReportsCompletion) {
  const Codec& codec = *FindCodec("Roaring");
  BaseFixture f = MakeBase(TestSeed(0x11f4));
  const std::string dir = MakeDir("live_async");
  auto live = LiveIndex::Create(dir, f.Build(codec));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(
      (*live)
          ->Insert(0, RandomSortedList(30, f.num_rows, TestSeed(0x11f5)))
          .ok());

  ThreadPool pool(2);
  std::promise<Status> done;
  (*live)->CompactAsync(&pool, [&](Status st) { done.set_value(st); });
  const Status st = done.get_future().get();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ((*live)->Stats().compactions, 1u);
  EXPECT_EQ((*live)->Stats().delta_rows, 0u);
  ASSERT_TRUE((*live)->Close().ok());
}

// The worker-side compaction span must nest under the submitting thread's
// trace (via the compact_submit anchor CompactAsync opens), not surface as
// an orphaned root in snapshots.
TEST(LiveIndexTest, CompactAsyncSpansNestUnderTheSubmittingTrace) {
  const Codec& codec = *FindCodec("Roaring");
  BaseFixture f = MakeBase(TestSeed(0x11f6));
  const std::string dir = MakeDir("live_async_trace");
  auto live = LiveIndex::Create(dir, f.Build(codec));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(
      (*live)
          ->Insert(0, RandomSortedList(30, f.num_rows, TestSeed(0x11f7)))
          .ok());

  obs::SetTraceSampling(0);
  obs::ClearSpans();
  obs::SetTraceSeed(42);
  obs::SetTraceSampling(1);
  {
    ThreadPool pool(2);
    std::promise<Status> done;
    (*live)->CompactAsync(&pool, [&](Status st) { done.set_value(st); });
    ASSERT_TRUE(done.get_future().get().ok());
  }  // pool joined: rings quiescent
  obs::SetTraceSampling(0);

  const auto all = obs::SnapshotSpans();
  uint64_t submit_id = 0;
  for (const auto& s : all) {
    if (s.name != nullptr &&
        std::string_view(s.name) == "storage.compact_submit") {
      submit_id = s.span_id;
    }
  }
  ASSERT_NE(submit_id, 0u);
  bool found_compaction = false;
  for (const auto& s : all) {
    if (s.name != nullptr && std::string_view(s.name) == "storage.compaction") {
      found_compaction = true;
      EXPECT_EQ(s.parent_id, submit_id);
    }
  }
  EXPECT_TRUE(found_compaction);
  obs::ClearSpans();
  ASSERT_TRUE((*live)->Close().ok());
}

// ------------------------------------------------- compaction byte identity

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  EXPECT_NE(fp, nullptr) << path;
  if (fp == nullptr) return bytes;
  uint8_t buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), fp)) > 0;) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(fp);
  return bytes;
}

std::vector<uint32_t> RefMinus(const std::vector<uint32_t>& a,
                               const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// A compacted container is byte-for-byte the container of a fresh Build
// over the lists the frozen deltas describe, for every codec and shard
// count. The deltas cover each shard's first and last row, a (shard, list)
// emptied by deletes, inserts into an empty list, and updates that race the
// freeze: those stay out of the container and survive in the rotated WAL.
TEST(LiveIndexCompactionTest, ContainerIsByteIdenticalToAFreshBuild) {
  fault::ScopedDisarm disarm;
  constexpr uint64_t kRows = 1000;
  const std::string dir = MakeDir("live_byte_identity");
  LiveIndexOptions options;
  // The racing updates land while the container rename backs off from one
  // injected transient fault (10-20 ms).
  options.retry.base_backoff_us = 20000;
  options.retry.max_backoff_us = 40000;

  for (const Codec* codec : AllCodecsWithExtensions()) {
    for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
      SCOPED_TRACE(std::string(codec->Name()) + " shards=" +
                   std::to_string(shards));
      MakeDir("live_byte_identity");
      const ShardRouter router(kRows, shards);
      const size_t last = router.NumShards() - 1;
      std::vector<uint32_t> edges;  // every shard's first and last row
      for (size_t s = 0; s < router.NumShards(); ++s) {
        edges.push_back(static_cast<uint32_t>(router.Begin(s)));
        edges.push_back(static_cast<uint32_t>(router.End(s) - 1));
      }
      CanonicalizeRows(&edges);
      std::vector<uint32_t> last_shard;  // rows 0..19 of the last shard
      for (uint32_t r = 0; r < 20; ++r) {
        last_shard.push_back(static_cast<uint32_t>(router.Begin(last)) + r);
      }

      std::vector<std::vector<uint32_t>> model = {
          RefMinus(RandomSortedList(200, kRows, TestSeed(0x2a00)), edges),
          RefUnion(RandomSortedList(500, kRows, TestSeed(0x2a01)), edges),
          {},
          RefUnion(RandomSortedList(150, kRows, TestSeed(0x2a03)),
                   last_shard)};
      auto live = LiveIndex::Create(
          dir, ShardedIndex::Build(*codec, model, kRows, shards), options);
      ASSERT_TRUE(live.ok()) << live.status().ToString();

      // Frozen deltas.
      const std::vector<uint32_t> fresh_rows =
          RandomSortedList(40, kRows, TestSeed(0x2a02));
      std::vector<uint32_t> emptied;  // list 3's rows in the last shard
      for (uint32_t r : model[3]) {
        if (r >= router.Begin(last)) emptied.push_back(r);
      }
      uint32_t flip_out = 0;  // a row list 0 lacks before and after edges
      while (std::binary_search(model[0].begin(), model[0].end(), flip_out) ||
             std::binary_search(edges.begin(), edges.end(), flip_out)) {
        ++flip_out;
      }
      const uint32_t flip_in = model[1][model[1].size() / 2];
      ASSERT_TRUE((*live)->Insert(0, edges).ok());
      ASSERT_TRUE((*live)->Insert(0, std::vector<uint32_t>{flip_out}).ok());
      ASSERT_TRUE((*live)->Remove(1, edges).ok());
      ASSERT_TRUE((*live)->Remove(1, std::vector<uint32_t>{flip_in}).ok());
      ASSERT_TRUE((*live)->Insert(2, fresh_rows).ok());
      ASSERT_TRUE((*live)->Remove(3, emptied).ok());
      model[0] = RefUnion(RefUnion(model[0], edges), {flip_out});
      model[1] = RefMinus(RefMinus(model[1], edges), {flip_in});
      model[2] = fresh_rows;
      model[3] = RefMinus(model[3], emptied);
      const std::vector<std::vector<uint32_t>> frozen_model = model;

      // Updates racing the freeze: flip both frozen rows back and refill
      // part of the emptied (shard, list).
      const std::vector<uint32_t> refill(emptied.begin(),
                                         emptied.begin() + 3);
      fault::FaultInjector::Global().ArmTransientFirst(
          1, fault::SiteBit(fault::Site::kRename));
      Status compacted;
      std::atomic<bool> done{false};
      std::thread compactor([&] {
        compacted = (*live)->Compact();
        done.store(true);
      });
      // The first rename is the container's, after the freeze. Updates
      // that land after the commit instead end the same way: outside the
      // container and in the rotated WAL.
      while (fault::FaultInjector::Global().OpsSeen() == 0 && !done.load()) {
        std::this_thread::yield();
      }
      EXPECT_TRUE((*live)->Remove(0, std::vector<uint32_t>{flip_out}).ok());
      EXPECT_TRUE((*live)->Insert(1, std::vector<uint32_t>{flip_in}).ok());
      EXPECT_TRUE((*live)->Insert(3, refill).ok());
      compactor.join();
      fault::FaultInjector::Global().Disarm();
      ASSERT_TRUE(compacted.ok()) << compacted.ToString();
      model[0] = RefMinus(model[0], {flip_out});
      model[1] = RefUnion(model[1], {flip_in});
      model[3] = RefUnion(model[3], refill);

      std::vector<uint8_t> expected;
      ASSERT_TRUE(storage::WriteIndexImage(
                      ShardedIndex::Build(*codec, frozen_model, kRows, shards),
                      &expected)
                      .ok());
      EXPECT_EQ(ReadFileBytes(dir + "/" + LiveIndex::kIndexFile), expected);
      EXPECT_EQ((*live)->Stats().delta_rows, 2u + refill.size());
      ASSERT_TRUE((*live)->Close().ok());

      // The racing updates are in the rotated WAL: checkpoint + one record
      // per surviving (list, polarity).
      auto reopened = LiveIndex::Open(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ((*reopened)->Stats().replayed_records, 4u);
      auto snap = (*reopened)->Snapshot();
      for (uint32_t l = 0; l < model.size(); ++l) {
        EXPECT_EQ(ListRows(*snap, l), model[l]) << "list " << l;
      }
    }
  }
}

// Compaction's base is a lazy container no query has materialized yet, and
// two readers query throughout: compaction and the readers materialize the
// same payloads concurrently (run under TSan in CI), and every read sees
// the one effective index the compaction preserves.
TEST(LiveIndexCompactionTest, LazyUntouchedBaseRacesReaders) {
  const Codec& codec = *FindCodec("Planner");
  BaseFixture f = MakeBase(TestSeed(0x2a10));
  const std::string dir = MakeDir("live_lazy_race");
  LiveIndexOptions options;
  options.mapped.validate = storage::ValidateMode::kLazy;
  auto live = LiveIndex::Create(dir, f.Build(codec, 4), options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const auto base = std::dynamic_pointer_cast<const storage::MappedIndex>(
      (*live)->Snapshot());
  ASSERT_NE(base, nullptr);

  const std::vector<uint32_t> ins =
      RandomSortedList(60, f.num_rows, TestSeed(0x2a11));
  const std::vector<uint32_t> del(f.lists[1].begin(), f.lists[1].begin() + 30);
  ASSERT_TRUE((*live)->Insert(0, ins).ok());
  ASSERT_TRUE((*live)->Remove(1, del).ok());
  f.lists[0] = RefUnion(f.lists[0], ins);
  f.lists[1] = RefMinus(f.lists[1], del);
  ASSERT_EQ(base->MaterializedPayloads(), 0u);

  ThreadPool pool(2);
  IndexServiceOptions service_options;
  service_options.cache_enabled = false;
  IndexService service((*live)->Snapshot(), &pool, service_options);
  (*live)->AttachService(&service);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0}, mismatches{0};
  auto reader = [&] {
    std::vector<uint32_t> out;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t l = 0; l < f.lists.size(); ++l) {
        const Status st = service.Query(QueryPlan::Leaf(l), &out);
        if (!st.ok() || out != f.lists[l]) mismatches.fetch_add(1);
      }
      reads.fetch_add(1);
    }
  };
  std::thread r1(reader), r2(reader);
  const Status st = (*live)->Compact();
  const uint64_t reads_at_commit = reads.load();
  while (reads.load() < reads_at_commit + 4) std::this_thread::yield();
  stop.store(true);
  r1.join();
  r2.join();

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ((*live)->Stats().compactions, 1u);
  EXPECT_EQ((*live)->Stats().delta_rows, 0u);
  auto snap = (*live)->Snapshot();
  for (uint32_t l = 0; l < f.lists.size(); ++l) {
    EXPECT_EQ(ListRows(*snap, l), f.lists[l]) << "list " << l;
  }
  (*live)->AttachService(nullptr);
  ASSERT_TRUE((*live)->Close().ok());
}

}  // namespace
}  // namespace intcomp

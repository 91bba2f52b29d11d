// LiveIndex — the crash-safe mutable index (DESIGN.md §5.11).
//
// Layers an LSM-flavored write path over the immutable container format:
//
//   index.ics   the compacted base (format.h container, served by
//               MappedIndex)
//   wal.log     CRC-framed redo log of every update since the base was
//               compacted (wal.h)
//   in memory   a DeltaMap of pending inserts/deletes, overlaid on the
//               base by OverlaySnapshot (delta_overlay.h)
//
// Every Insert/Remove appends one WAL record (durable per the configured
// fsync cadence), applies the delta, and publishes a fresh copy-on-write
// OverlaySnapshot — into the attached IndexService if any, so queries
// racing updates or compaction swaps observe exactly one generation.
//
// Compaction folds a frozen copy of the deltas into a freshly built,
// freshly compressed base. It streams: ShardedIndex::BuildFromRows claims
// (shard, list) items in parallel, and each item's rows are the base's set
// for that (shard, list) decoded and folded with the shard's slice of the
// frozen deltas (FoldShardList, the overlay's own fold), then encoded. Only
// one (shard, list) per worker is ever decoded at a time; every pair is
// still re-encoded, clean or not. It commits in two atomic steps:
//
//   1. write index.tmp.ics (header patched last, fsynced), rename over
//      index.ics;
//   2. write wal.tmp.log (checkpoint + the deltas that arrived *during*
//      the fold), fsync, rename over wal.log.
//
// A crash between the two is benign by construction: delta state is each
// row's last recorded polarity, independent of the base, so replaying the
// full old WAL over the new base reconverges on the identical effective
// index (the recovery tests pin this down for every crash point).
// Updates are accepted throughout — only the commit itself briefly holds
// the writer lock.
//
// Recovery (Open) maps the container, replays the WAL's valid prefix —
// tolerating a torn tail, rejecting tampering — and resumes appending
// where the log left off. Transient I/O failures (injected faults,
// EINTR-class errno) are retried with deterministic jittered backoff;
// permanent ones surface as Status.

#ifndef INTCOMP_STORAGE_LIVE_INDEX_H_
#define INTCOMP_STORAGE_LIVE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "engine/thread_pool.h"
#include "service/delta_overlay.h"
#include "service/sharded_index.h"
#include "service/snapshot.h"
#include "storage/mapped_index.h"
#include "storage/wal.h"

namespace intcomp::storage {

struct LiveIndexOptions {
  MappedIndexOptions mapped;  // validate mode for (re)opened containers
  WalOptions wal;             // fsync cadence + append retry
  RetryOptions retry;         // container write/open/rename retry
};

// Point-in-time counters (monotonic over the object's lifetime).
struct LiveIndexStats {
  uint64_t inserts = 0;             // accepted Insert batches
  uint64_t removes = 0;             // accepted Remove batches
  uint64_t delta_rows = 0;          // rows currently pending in the overlay
  uint64_t dirty_lists = 0;         // lists with pending deltas
  uint64_t wal_records = 0;         // records appended by this object
  uint64_t wal_bytes = 0;           // bytes appended by this object
  uint64_t wal_syncs = 0;           // fsyncs issued by this object
  uint64_t replayed_records = 0;    // records recovered at Open
  bool recovered_torn_tail = false; // Open truncated a torn WAL tail
  uint64_t compactions = 0;         // committed compactions
  uint64_t compaction_failures = 0; // aborted compactions (state unchanged)
  uint64_t generation = 0;          // published snapshots (swap count)
};

class LiveIndex {
 public:
  // Files inside the index directory.
  static constexpr const char* kIndexFile = "index.ics";
  static constexpr const char* kWalFile = "wal.log";
  static constexpr const char* kIndexTmpFile = "index.tmp.ics";
  static constexpr const char* kWalTmpFile = "wal.tmp.log";

  // Creates a fresh live index at `dir` (which must exist): writes `base`
  // as the container, starts an empty WAL.
  static StatusOr<std::unique_ptr<LiveIndex>> Create(
      const std::string& dir, const ShardedIndex& base,
      const LiveIndexOptions& options = {});

  // Opens an existing directory: maps the container, replays the WAL's
  // valid prefix (torn tails are truncated and reported in Stats()), and
  // resumes appending. Fails with kCorruptData for damage no crash of our
  // writer can produce.
  static StatusOr<std::unique_ptr<LiveIndex>> Open(
      const std::string& dir, const LiveIndexOptions& options = {});

  // Volatile flavor: no directory, no WAL — the overlay/compaction
  // machinery over an in-memory snapshot (concurrency tests, benches).
  static std::unique_ptr<LiveIndex> Wrap(
      std::shared_ptr<const IndexSnapshot> base);

  ~LiveIndex();
  LiveIndex(const LiveIndex&) = delete;
  LiveIndex& operator=(const LiveIndex&) = delete;

  // Adds / removes `rows` (any order, duplicates ignored; all < NumRows())
  // for `list`. Durable once the call returns OK (per the WAL sync
  // cadence); the published snapshot reflects the update immediately.
  Status Insert(uint32_t list, std::span<const uint32_t> rows);
  Status Remove(uint32_t list, std::span<const uint32_t> rows);

  // Forces every accepted update to disk regardless of sync cadence.
  Status Sync();

  // Folds the current deltas into a freshly compressed base and swaps it
  // in (see the commit protocol above). Serialized: a second concurrent
  // call fails fast with kUnavailable. On failure the live state is
  // unchanged (at worst a temp file is left behind and reclaimed later).
  Status Compact();

  // Compact() on `pool`, invoking `done` (if set) with its Status.
  void CompactAsync(ThreadPool* pool, std::function<void(Status)> done = {});

  // Attaches a service: every publish (updates, compactions) swaps the
  // fresh snapshot in, invalidating its result cache. The service must
  // outlive this object (or be detached with nullptr).
  void AttachService(IndexService* service);

  // The current published snapshot (base + pending deltas).
  std::shared_ptr<const IndexSnapshot> Snapshot() const;

  // Final sync + close of the WAL; further updates fail. Idempotent.
  Status Close();

  LiveIndexStats Stats() const;
  const std::string& Dir() const { return dir_; }

 private:
  LiveIndex(std::string dir, LiveIndexOptions options);

  Status Update(WalOp op, uint32_t list, std::span<const uint32_t> rows);
  // Rebuilds + republishes the overlay; call with mu_ held.
  void PublishLocked();
  // Writes a fresh WAL (checkpoint + `survivors`), renames it over
  // wal.log, resumes appending; call with mu_ held. On failure after the
  // rename the writer is lost (wal_ == nullptr): updates are refused until
  // the index is reopened, while queries keep serving a consistent state.
  Status RotateWalLocked(
      uint64_t checkpoint_id,
      const std::vector<std::pair<uint32_t, ListDelta>>& survivors);

  const std::string dir_;  // empty for Wrap()ed volatile indexes
  const LiveIndexOptions options_;

  mutable std::mutex mu_;  // writer/state lock: deltas_, wal_, base_
  std::shared_ptr<const IndexSnapshot> base_;
  DeltaMap deltas_;
  std::unique_ptr<WalWriter> wal_;  // null for volatile or closed indexes
  bool closed_ = false;

  mutable std::mutex snap_mu_;  // publish pointer (cheap reads)
  std::shared_ptr<const IndexSnapshot> snapshot_;
  IndexService* service_ = nullptr;  // guarded by mu_

  std::atomic<bool> compacting_{false};
  uint64_t checkpoint_seq_ = 0;  // guarded by mu_

  std::atomic<uint64_t> inserts_{0}, removes_{0}, compactions_{0},
      compaction_failures_{0}, generation_{0};
  uint64_t replayed_records_ = 0;
  bool recovered_torn_tail_ = false;
  // WAL counters accumulated across rotations (a rotation discards the
  // writer and its counters).
  uint64_t wal_records_base_ = 0, wal_bytes_base_ = 0, wal_syncs_base_ = 0;
};

}  // namespace intcomp::storage

#endif  // INTCOMP_STORAGE_LIVE_INDEX_H_

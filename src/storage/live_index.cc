#include "storage/live_index.h"

#include <cerrno>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/index_writer.h"

namespace intcomp::storage {
namespace {

void BumpCounter(const char* name, uint64_t delta = 1) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (reg.Enabled()) reg.AddCounter(name, delta);
}

std::string PathJoin(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

// rename(2) with fault injection and transient retry. POSIX rename is the
// atomic commit primitive of both commit steps: readers see either the old
// or the new file, never a mix.
Status RenameFile(const std::string& from, const std::string& to,
                  const RetryOptions& retry) {
  return RetryTransient(retry, [&]() -> Status {
    const fault::Action action =
        fault::FaultInjector::Global().OnOp(fault::Site::kRename, 0);
    if (action.kind == fault::Kind::kTransient) {
      return Status::Unavailable("injected transient fault: rename");
    }
    if (action.kind != fault::Kind::kNone) {
      return Status::Internal("injected permanent fault: rename");
    }
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ENOSPC ||
          errno == EIO) {
        return Status::Unavailable("rename failed: " + from);
      }
      return Status::Internal("rename failed: " + from);
    }
    return Status::Ok();
  });
}

// A compaction phase boundary: lets crash-at-op-K schedules land between
// (not just inside) the file operations of the commit protocol.
Status CompactionStep(const char* phase) {
  const fault::Action action =
      fault::FaultInjector::Global().OnOp(fault::Site::kCompactionStep, 0);
  if (action.kind == fault::Kind::kNone) return Status::Ok();
  if (action.kind == fault::Kind::kTransient) {
    return Status::Unavailable(std::string("injected transient fault: ") +
                               phase);
  }
  return Status::Internal(std::string("injected fault: ") + phase);
}

}  // namespace

LiveIndex::LiveIndex(std::string dir, LiveIndexOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

LiveIndex::~LiveIndex() { Close(); }

StatusOr<std::unique_ptr<LiveIndex>> LiveIndex::Create(
    const std::string& dir, const ShardedIndex& base,
    const LiveIndexOptions& options) {
  Status st = WriteIndexFile(PathJoin(dir, kIndexTmpFile), base,
                             options.retry);
  if (!st.ok()) return st;
  st = RenameFile(PathJoin(dir, kIndexTmpFile), PathJoin(dir, kIndexFile),
                  options.retry);
  if (!st.ok()) return st;
  return Open(dir, options);
}

StatusOr<std::unique_ptr<LiveIndex>> LiveIndex::Open(
    const std::string& dir, const LiveIndexOptions& options) {
  TRACE_SPAN("storage.live_open");
  StatusOr<std::unique_ptr<MappedIndex>> base =
      OpenIndexWithRetry(PathJoin(dir, kIndexFile), options.mapped,
                         options.retry);
  if (!base.ok()) return base.status();

  // A crash may strand temp files from an uncommitted compaction; they are
  // dead (never read) and removed so later compactions start clean.
  std::remove(PathJoin(dir, kIndexTmpFile).c_str());
  std::remove(PathJoin(dir, kWalTmpFile).c_str());

  std::unique_ptr<LiveIndex> live(new LiveIndex(dir, options));
  live->base_ = std::shared_ptr<const IndexSnapshot>(std::move(base.value()));
  const size_t num_lists = live->base_->NumLists();
  const uint64_t num_rows = live->base_->NumRows();

  const std::string wal_path = PathJoin(dir, kWalFile);
  StatusOr<WalReplayStats> replay =
      ReplayWal(wal_path, [&](const WalRecord& rec) -> Status {
        switch (rec.op) {
          case WalOp::kInsert:
          case WalOp::kRemove:
            if (rec.list >= num_lists ||
                (!rec.rows.empty() && rec.rows.back() >= num_rows)) {
              return Status::Corrupt("wal record out of index bounds");
            }
            if (rec.op == WalOp::kInsert) {
              live->deltas_.Insert(rec.list, rec.rows);
            } else {
              live->deltas_.Remove(rec.list, rec.rows);
            }
            return Status::Ok();
          case WalOp::kCheckpoint:
            // Informational compaction marker; replay over the *current*
            // base is idempotent regardless (see delta_overlay.h).
            live->checkpoint_seq_ =
                std::max(live->checkpoint_seq_, rec.checkpoint_id);
            return Status::Ok();
        }
        return Status::Corrupt("wal record with unknown op");
      });
  if (!replay.ok()) return replay.status();
  live->replayed_records_ = replay.value().records;
  live->recovered_torn_tail_ = replay.value().tail_truncated;
  if (replay.value().tail_truncated) {
    BumpCounter("storage.wal.torn_tail_recovered");
  }

  StatusOr<std::unique_ptr<WalWriter>> wal =
      replay.value().existed
          ? WalWriter::OpenForAppend(wal_path, replay.value(), options.wal)
          : WalWriter::Create(wal_path, options.wal);
  if (!wal.ok()) return wal.status();
  live->wal_ = std::move(wal.value());

  {
    std::lock_guard<std::mutex> lock(live->mu_);
    live->PublishLocked();
  }
  return StatusOr<std::unique_ptr<LiveIndex>>(std::move(live));
}

std::unique_ptr<LiveIndex> LiveIndex::Wrap(
    std::shared_ptr<const IndexSnapshot> base) {
  std::unique_ptr<LiveIndex> live(new LiveIndex("", {}));
  live->base_ = std::move(base);
  std::lock_guard<std::mutex> lock(live->mu_);
  live->PublishLocked();
  return live;
}

void LiveIndex::PublishLocked() {
  std::shared_ptr<const IndexSnapshot> next =
      deltas_.Dirty() ? std::make_shared<OverlaySnapshot>(base_,
                                                          deltas_.Copy())
                      : base_;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snapshot_ = next;
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
  if (service_ != nullptr) {
    // Swap failures (shard-count mismatch) are impossible here: every
    // overlay shares the base's router.
    service_->SwapSnapshot(std::move(next));
  }
}

std::shared_ptr<const IndexSnapshot> LiveIndex::Snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snapshot_;
}

void LiveIndex::AttachService(IndexService* service) {
  std::lock_guard<std::mutex> lock(mu_);
  service_ = service;
  if (service_ != nullptr) {
    std::shared_ptr<const IndexSnapshot> snap;
    {
      std::lock_guard<std::mutex> slock(snap_mu_);
      snap = snapshot_;
    }
    service_->SwapSnapshot(std::move(snap));
  }
}

Status LiveIndex::Update(WalOp op, uint32_t list,
                         std::span<const uint32_t> rows) {
  std::vector<uint32_t> canon(rows.begin(), rows.end());
  CanonicalizeRows(&canon);

  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("live index closed");
  if (wal_ == nullptr && !dir_.empty()) {
    // A failed WAL rotation retired the writer after its rename landed;
    // accepting non-durable updates here would diverge from disk.
    return Status::Unavailable("wal writer unavailable; reopen the index");
  }
  if (list >= base_->NumLists()) {
    return Status::InvalidArgument("update list out of range");
  }
  if (!canon.empty() && canon.back() >= base_->NumRows()) {
    return Status::InvalidArgument("update row out of range");
  }
  if (canon.empty()) return Status::Ok();

  if (wal_ != nullptr) {
    obs::ScopedOpTimer timer(base_->codec().Name(), obs::OpKind::kWalAppend);
    Status st = wal_->AppendUpdate(op, list, canon);
    if (!st.ok()) return st;  // not applied: durable and in-memory agree
  }
  if (op == WalOp::kInsert) {
    deltas_.Insert(list, canon);
    inserts_.fetch_add(1, std::memory_order_relaxed);
  } else {
    deltas_.Remove(list, canon);
    removes_.fetch_add(1, std::memory_order_relaxed);
  }
  PublishLocked();
  return Status::Ok();
}

Status LiveIndex::Insert(uint32_t list, std::span<const uint32_t> rows) {
  return Update(WalOp::kInsert, list, rows);
}

Status LiveIndex::Remove(uint32_t list, std::span<const uint32_t> rows) {
  return Update(WalOp::kRemove, list, rows);
}

Status LiveIndex::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return Status::Ok();
  return wal_->Sync();
}

Status LiveIndex::Compact() {
  bool expected = false;
  if (!compacting_.compare_exchange_strong(expected, true)) {
    return Status::Unavailable("compaction already running");
  }
  TRACE_SPAN("storage.compaction");
  Status st = [&]() -> Status {
    // Freeze: the deltas this compaction folds in. Updates keep landing in
    // the live map while the fold runs; commit subtracts exactly `frozen`.
    std::vector<std::pair<uint32_t, ListDelta>> frozen;
    std::shared_ptr<const IndexSnapshot> base;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return Status::Internal("live index closed");
      frozen = deltas_.Copy();
      base = base_;
    }
    obs::ScopedOpTimer timer(base->codec().Name(), obs::OpKind::kCompaction);

    Status step = CompactionStep("compaction merge");
    if (!step.ok()) return step;

    // Fold base + frozen one (shard, list) at a time inside the parallel
    // encoder, so no decoded copy of the whole index is ever held. The base
    // sets are resolved up front: a lazy container can fail here, and the
    // spans stay valid while `base` is pinned.
    const ShardRouter& router = base->Router();
    const size_t num_lists = base->NumLists();
    std::vector<size_t> all(num_lists);
    std::iota(all.begin(), all.end(), 0);
    std::vector<std::span<const CompressedSet* const>> base_sets;
    base_sets.reserve(router.NumShards());
    for (size_t s = 0; s < router.NumShards(); ++s) {
      StatusOr<std::span<const CompressedSet* const>> sets =
          base->PlanSets(s, all);
      if (!sets.ok()) return sets.status();
      base_sets.push_back(sets.value());
    }
    std::vector<const ListDelta*> dirty(num_lists, nullptr);
    for (const auto& [list, delta] : frozen) dirty[list] = &delta;
    const Codec& codec = base->codec();
    ShardedIndex fresh = ShardedIndex::BuildFromRows(
        codec, router, num_lists,
        [&, scratch = FoldScratch{}](size_t s, size_t l,
                                     std::vector<uint32_t>* rows) mutable {
          FoldShardList(codec, router, s, *base_sets[s][l], dirty[l],
                        &scratch, rows);
        });

    std::shared_ptr<const IndexSnapshot> next_base;
    if (dir_.empty()) {
      // Volatile index: the rebuilt snapshot itself is the new base.
      next_base = std::make_shared<ShardedIndex>(std::move(fresh));
    } else {
      // Commit step 1: temp container (header patched last, fsynced),
      // renamed atomically over index.ics.
      step = CompactionStep("compaction container write");
      if (!step.ok()) return step;
      Status write = WriteIndexFile(PathJoin(dir_, kIndexTmpFile), fresh,
                                    options_.retry);
      if (!write.ok()) return write;
      step = CompactionStep("compaction container rename");
      if (!step.ok()) return step;
      Status ren = RenameFile(PathJoin(dir_, kIndexTmpFile),
                              PathJoin(dir_, kIndexFile), options_.retry);
      if (!ren.ok()) return ren;
      // From here on the on-disk pair is (new container, old WAL) — a
      // crash recovers the post-compaction state via idempotent replay.
      StatusOr<std::unique_ptr<MappedIndex>> reopened =
          OpenIndexWithRetry(PathJoin(dir_, kIndexFile), options_.mapped,
                             options_.retry);
      if (!reopened.ok()) return reopened.status();
      next_base = std::shared_ptr<const IndexSnapshot>(
          std::move(reopened.value()));
    }

    // Commit: rotate the WAL (step 2) onto the surviving deltas, then drop
    // the folded ones and swap the base. Under mu_ so no update interleaves
    // with the subtract or lands in the gap between the new WAL's content
    // and the live map. The survivors are computed on a copy first: if
    // rotation fails before its rename, the live state is untouched.
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Internal("live index closed");
    DeltaMap survivors = deltas_;
    survivors.Subtract(frozen);
    if (wal_ != nullptr) {
      Status rot = RotateWalLocked(++checkpoint_seq_, survivors.Copy());
      if (!rot.ok()) return rot;
    }
    deltas_ = std::move(survivors);
    base_ = std::move(next_base);
    PublishLocked();
    BumpCounter("storage.compaction.committed");
    return Status::Ok();
  }();
  if (st.ok()) {
    compactions_.fetch_add(1, std::memory_order_relaxed);
  } else {
    compaction_failures_.fetch_add(1, std::memory_order_relaxed);
    BumpCounter("storage.compaction.aborted");
  }
  compacting_.store(false, std::memory_order_release);
  return st;
}

void LiveIndex::CompactAsync(ThreadPool* pool,
                             std::function<void(Status)> done) {
  // Submit-side trace anchor. ThreadPool::Enqueue only carries a trace
  // context when the submitting thread has a span open, so a CompactAsync
  // called outside any span used to surface its storage.compaction span as
  // an orphaned root in snapshots. Opening the anchor here (a child of
  // whatever the caller has open, or a root of its own) gives Enqueue a
  // context to capture, and the worker-side spans nest under the submitting
  // thread's trace.
  TRACE_SPAN("storage.compact_submit");
  pool->Submit([this, done = std::move(done)](size_t /*worker*/) {
    Status st = Compact();
    if (done) done(st);
  });
}

Status LiveIndex::RotateWalLocked(
    uint64_t checkpoint_id,
    const std::vector<std::pair<uint32_t, ListDelta>>& survivors) {
  TRACE_SPAN("storage.wal_rotate");
  const std::string tmp = PathJoin(dir_, kWalTmpFile);
  const std::string path = PathJoin(dir_, kWalFile);

  // Fresh log: checkpoint marker + synthetic records for the deltas that
  // arrived during the fold (they are not in the new base). Written and
  // fsynced as a whole before the rename, so the swap is atomic.
  {
    StatusOr<std::unique_ptr<WalWriter>> fresh =
        WalWriter::Create(tmp, options_.wal);
    if (!fresh.ok()) return fresh.status();
    WalWriter& w = *fresh.value();
    Status st = w.AppendCheckpoint(checkpoint_id);
    for (const auto& [list, delta] : survivors) {
      if (st.ok() && !delta.inserts.empty()) {
        st = w.AppendUpdate(WalOp::kInsert, list, delta.inserts);
      }
      if (st.ok() && !delta.deletes.empty()) {
        st = w.AppendUpdate(WalOp::kRemove, list, delta.deletes);
      }
    }
    if (st.ok()) st = w.Close();
    if (!st.ok()) return st;  // old WAL untouched, still appending
  }

  Status ren = RenameFile(tmp, path, options_.retry);
  if (!ren.ok()) return ren;

  // The old writer now appends to an unlinked inode; retire it and resume
  // on the new file. Accumulate its counters first.
  wal_records_base_ += wal_->Records();
  wal_bytes_base_ += wal_->BytesWritten();
  wal_syncs_base_ += wal_->Syncs();
  wal_->Close();
  wal_.reset();

  StatusOr<WalReplayStats> replay =
      ReplayWal(path, [](const WalRecord&) { return Status::Ok(); });
  if (!replay.ok()) return replay.status();
  StatusOr<std::unique_ptr<WalWriter>> reopened =
      WalWriter::OpenForAppend(path, replay.value(), options_.wal);
  if (!reopened.ok()) return reopened.status();
  wal_ = std::move(reopened.value());
  BumpCounter("storage.wal.rotations");
  return Status::Ok();
}

Status LiveIndex::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Ok();
  closed_ = true;
  if (wal_ == nullptr) return Status::Ok();
  wal_records_base_ += wal_->Records();
  wal_bytes_base_ += wal_->BytesWritten();
  wal_syncs_base_ += wal_->Syncs();
  Status st = wal_->Close();
  wal_.reset();
  return st;
}

LiveIndexStats LiveIndex::Stats() const {
  LiveIndexStats s;
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.removes = removes_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.compaction_failures =
      compaction_failures_.load(std::memory_order_relaxed);
  s.generation = generation_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.delta_rows = deltas_.DeltaRows();
  s.dirty_lists = deltas_.DirtyLists();
  s.replayed_records = replayed_records_;
  s.recovered_torn_tail = recovered_torn_tail_;
  s.wal_records = wal_records_base_;
  s.wal_bytes = wal_bytes_base_;
  s.wal_syncs = wal_syncs_base_;
  if (wal_ != nullptr) {
    s.wal_records += wal_->Records();
    s.wal_bytes += wal_->BytesWritten();
    s.wal_syncs += wal_->Syncs();
  }
  return s;
}

}  // namespace intcomp::storage

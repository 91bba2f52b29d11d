// WAL unit + crash-consistency tests (src/storage/wal.h).
//
// The pinned property: recovery from ANY byte prefix of the log lands on a
// state equal to some record prefix of the operation stream — never a torn
// record, never an invented one. Plus writer mechanics: sync cadence,
// reopen-append sequencing, fault-injected appends, and the tampering
// detections (CRC-valid-but-malformed payloads, sequence gaps) that
// distinguish "torn by a crash" from "modified by something else".

#include "storage/wal.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/status.h"
#include "test_util.h"

namespace intcomp {
namespace {

using storage::ReplayWal;
using storage::WalOp;
using storage::WalOptions;
using storage::WalRecord;
using storage::WalReplayStats;
using storage::WalWriter;
using storage::kWalHeaderBytes;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not receive.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// One logical update for building logs and comparing replays.
struct Op {
  WalOp op;
  uint32_t list;
  std::vector<uint32_t> rows;
};

std::vector<Op> MakeOps(size_t n, uint64_t seed) {
  Prng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Op op;
    op.op = rng.NextBounded(3) == 0 ? WalOp::kRemove : WalOp::kInsert;
    op.list = static_cast<uint32_t>(rng.NextBounded(8));
    op.rows = RandomSortedList(1 + rng.NextBounded(20), 10000, rng.Next());
    ops.push_back(std::move(op));
  }
  return ops;
}

void AppendOps(WalWriter& w, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    ASSERT_TRUE(w.AppendUpdate(op.op, op.list, op.rows).ok());
  }
}

// Replays `path`, collecting updates; EXPECTs no intra-record tearing.
StatusOr<WalReplayStats> Collect(const std::string& path,
                                 std::vector<Op>* out) {
  out->clear();
  return ReplayWal(path, [&](const WalRecord& rec) {
    if (rec.op != WalOp::kCheckpoint) {
      out->push_back(Op{rec.op, rec.list,
                        std::vector<uint32_t>(rec.rows.begin(),
                                              rec.rows.end())});
    }
    return Status::Ok();
  });
}

void ExpectOpsEqual(const std::vector<Op>& got, const std::vector<Op>& want,
                    size_t want_count) {
  ASSERT_EQ(got.size(), want_count);
  for (size_t i = 0; i < want_count; ++i) {
    EXPECT_EQ(static_cast<int>(got[i].op), static_cast<int>(want[i].op));
    EXPECT_EQ(got[i].list, want[i].list);
    EXPECT_EQ(got[i].rows, want[i].rows);
  }
}

TEST(WalTest, RoundTripUpdatesAndCheckpoint) {
  const std::string path = TempPath("wal_roundtrip.log");
  const std::vector<Op> ops = MakeOps(17, TestSeed(0xabc1));
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    AppendOps(**w, ops);
    ASSERT_TRUE((*w)->AppendCheckpoint(42).ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  std::vector<Op> got;
  uint64_t checkpoint = 0;
  auto stats = ReplayWal(path, [&](const WalRecord& rec) {
    if (rec.op == WalOp::kCheckpoint) {
      checkpoint = rec.checkpoint_id;
    } else {
      got.push_back(Op{rec.op, rec.list,
                      std::vector<uint32_t>(rec.rows.begin(),
                                            rec.rows.end())});
    }
    return Status::Ok();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().existed);
  EXPECT_EQ(stats.value().records, ops.size() + 1);
  EXPECT_FALSE(stats.value().tail_truncated);
  EXPECT_EQ(stats.value().next_seq, ops.size() + 2);
  EXPECT_EQ(checkpoint, 42u);
  ExpectOpsEqual(got, ops, ops.size());
}

TEST(WalTest, MissingFileIsEmptyLog) {
  auto stats = ReplayWal(TempPath("wal_never_created.log"),
                         [](const WalRecord&) { return Status::Ok(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().existed);
  EXPECT_EQ(stats.value().records, 0u);
  EXPECT_EQ(stats.value().next_seq, 1u);
}

// The crash-consistency property, exhaustively: EVERY byte prefix of a real
// log replays to an exact record prefix of the op stream.
TEST(WalTest, EveryBytePrefixRecoversARecordPrefix) {
  const std::string path = TempPath("wal_prefix_src.log");
  const std::vector<Op> ops = MakeOps(12, TestSeed(0xabc2));
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    AppendOps(**w, ops);
    ASSERT_TRUE((*w)->Close().ok());
  }
  const std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), kWalHeaderBytes);

  const std::string prefix_path = TempPath("wal_prefix_cut.log");
  size_t full_replays = 0;
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFile(prefix_path, TruncateAt(bytes, cut));
    std::vector<Op> got;
    auto stats = Collect(prefix_path, &got);
    ASSERT_TRUE(stats.ok()) << "cut=" << cut << ": "
                            << stats.status().ToString();
    ASSERT_LE(got.size(), ops.size()) << "cut=" << cut;
    ExpectOpsEqual(got, ops, got.size());  // exact record prefix, no tearing
    // The tail is reported torn iff bytes were dropped past the valid part.
    EXPECT_EQ(stats.value().tail_truncated,
              cut > stats.value().valid_bytes || (cut > 0 && cut < kWalHeaderBytes))
        << "cut=" << cut;
    EXPECT_EQ(stats.value().next_seq, got.size() + 1);
    if (got.size() == ops.size()) ++full_replays;
  }
  // Only cuts at/after the last frame's end replay everything.
  EXPECT_GT(full_replays, 0u);
}

TEST(WalTest, SyncCadence) {
  // Cadence 1: one fsync per record. Cadence 4: one per four. Cadence 0:
  // only the explicit Sync/Close ones.
  struct Case {
    size_t cadence;
    uint64_t expected_syncs_before_close;
  };
  for (const Case c : {Case{1, 8}, Case{4, 2}, Case{0, 0}}) {
    const std::string path = TempPath("wal_sync_cadence.log");
    WalOptions options;
    options.sync_every_records = c.cadence;
    auto w = WalWriter::Create(path, options);
    ASSERT_TRUE(w.ok());
    const std::vector<Op> ops = MakeOps(8, 0x5eed);
    AppendOps(**w, ops);
    EXPECT_EQ((*w)->Syncs(), c.expected_syncs_before_close)
        << "cadence=" << c.cadence;
    ASSERT_TRUE((*w)->Close().ok());  // close always syncs
    EXPECT_EQ((*w)->Records(), ops.size());
  }
}

TEST(WalTest, ReopenContinuesSequence) {
  const std::string path = TempPath("wal_reopen.log");
  const std::vector<Op> ops = MakeOps(9, TestSeed(0xabc3));
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    AppendOps(**w, {ops.begin(), ops.begin() + 5});
    ASSERT_TRUE((*w)->Close().ok());
  }
  {
    std::vector<Op> got;
    auto stats = Collect(path, &got);
    ASSERT_TRUE(stats.ok());
    auto w = WalWriter::OpenForAppend(path, *stats);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    EXPECT_EQ((*w)->NextSeq(), 6u);
    AppendOps(**w, {ops.begin() + 5, ops.end()});
    ASSERT_TRUE((*w)->Close().ok());
  }
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, ops.size());
  EXPECT_FALSE(stats.value().tail_truncated);
  ExpectOpsEqual(got, ops, ops.size());
}

TEST(WalTest, ReopenAfterTornTailTruncatesAndResumes) {
  const std::string path = TempPath("wal_torn_reopen.log");
  const std::vector<Op> ops = MakeOps(6, TestSeed(0xabc4));
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    AppendOps(**w, ops);
    ASSERT_TRUE((*w)->Close().ok());
  }
  // Tear the file mid-final-frame, then reopen and append one more record.
  std::vector<uint8_t> bytes = ReadFile(path);
  WriteFile(path, TruncateAt(bytes, bytes.size() - 3));
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().tail_truncated);
  ASSERT_EQ(got.size(), ops.size() - 1);
  auto w = WalWriter::OpenForAppend(path, *stats);
  ASSERT_TRUE(w.ok());
  const Op extra{WalOp::kInsert, 3, {7, 8, 9}};
  ASSERT_TRUE((*w)->AppendUpdate(extra.op, extra.list, extra.rows).ok());
  ASSERT_TRUE((*w)->Close().ok());

  auto final_stats = Collect(path, &got);
  ASSERT_TRUE(final_stats.ok());
  EXPECT_FALSE(final_stats.value().tail_truncated);
  ASSERT_EQ(got.size(), ops.size());  // ops[0..n-2] + extra
  ExpectOpsEqual({got.begin(), got.end() - 1}, ops, ops.size() - 1);
  EXPECT_EQ(got.back().rows, extra.rows);
}

// Locate the frames of a log: returns each frame's start offset (after the
// 8-byte file header).
std::vector<size_t> FrameOffsets(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> offsets;
  size_t pos = kWalHeaderBytes;
  while (pos + 8 <= bytes.size()) {
    offsets.push_back(pos);
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    pos += 8 + len;
  }
  return offsets;
}

TEST(WalTest, SequenceGapIsCorruptNotTorn) {
  const std::string path = TempPath("wal_seqgap.log");
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    AppendOps(**w, MakeOps(4, TestSeed(0xabc5)));
    ASSERT_TRUE((*w)->Close().ok());
  }
  // Excise the second frame entirely: every remaining frame is CRC-valid
  // but the sequence numbers jump 1 -> 3, which no crash can produce.
  std::vector<uint8_t> bytes = ReadFile(path);
  const std::vector<size_t> frames = FrameOffsets(bytes);
  ASSERT_GE(frames.size(), 3u);
  bytes.erase(bytes.begin() + static_cast<long>(frames[1]),
              bytes.begin() + static_cast<long>(frames[2]));
  WriteFile(path, bytes);
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruptData);
}

TEST(WalTest, CrcValidMalformedPayloadIsCorrupt) {
  const std::string path = TempPath("wal_forged.log");
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->AppendUpdate(WalOp::kInsert, 1, std::vector<uint32_t>{
                                       5, 6, 7}).ok());
    ASSERT_TRUE((*w)->Close().ok());
  }
  // Forge: swap two rows so they are no longer sorted, then re-patch the
  // frame CRC so the damage passes the checksum.
  std::vector<uint8_t> bytes = ReadFile(path);
  const std::vector<size_t> frames = FrameOffsets(bytes);
  ASSERT_EQ(frames.size(), 1u);
  const size_t payload = frames[0] + 8;
  uint32_t len = 0;
  std::memcpy(&len, bytes.data() + frames[0], 4);
  // Rows start at payload + 8 (seq) + 1 (op) + 4 (list) + 4 (count).
  std::swap(bytes[payload + 17], bytes[payload + 21]);
  std::swap(bytes[payload + 18], bytes[payload + 22]);
  std::swap(bytes[payload + 19], bytes[payload + 23]);
  std::swap(bytes[payload + 20], bytes[payload + 24]);
  const uint32_t crc = Crc32Of({bytes.data() + payload, len});
  std::memcpy(bytes.data() + frames[0] + 4, &crc, 4);
  WriteFile(path, bytes);
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruptData);
}

TEST(WalTest, BadMagicIsCorrupt) {
  const std::string path = TempPath("wal_badmagic.log");
  WriteFile(path, std::vector<uint8_t>(64, 0x5a));
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruptData);
}

TEST(WalTest, TransientAppendFaultsAreRetried) {
  fault::ScopedDisarm disarm;
  const std::string path = TempPath("wal_transient.log");
  auto w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  // Two transient failures, then healthy: the default 4-attempt budget
  // absorbs them and the append succeeds.
  fault::FaultInjector::Global().ArmTransientFirst(
      2, fault::SiteBit(fault::Site::kWalAppend));
  ASSERT_TRUE(
      (*w)->AppendUpdate(WalOp::kInsert, 0, std::vector<uint32_t>{1, 2})
          .ok());
  fault::FaultInjector::Global().Disarm();
  ASSERT_TRUE((*w)->Close().ok());
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 1u);
  EXPECT_FALSE(stats.value().tail_truncated);
}

TEST(WalTest, ExhaustedRetriesLatchTheWriter) {
  fault::ScopedDisarm disarm;
  const std::string path = TempPath("wal_exhausted.log");
  WalOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff_us = 1;
  auto w = WalWriter::Create(path, options);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(
      (*w)->AppendUpdate(WalOp::kInsert, 0, std::vector<uint32_t>{1}).ok());
  // Permanently failing appends: the writer latches broken and fails fast.
  fault::FaultInjector::Global().ArmRates(
      {0.0, 1.0, 0.0}, 1, fault::SiteBit(fault::Site::kWalAppend));
  Status st =
      (*w)->AppendUpdate(WalOp::kInsert, 1, std::vector<uint32_t>{2});
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE((*w)->Broken());
  fault::FaultInjector::Global().Disarm();
  EXPECT_FALSE(
      (*w)->AppendUpdate(WalOp::kInsert, 2, std::vector<uint32_t>{3}).ok());
  // The record before the failure is still fully recoverable.
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records, 1u);
}

TEST(WalTest, CrashAtOpLeavesRecoverableTornFrame) {
  fault::ScopedDisarm disarm;
  const std::string path = TempPath("wal_crash.log");
  const std::vector<Op> ops = MakeOps(10, TestSeed(0xabc6));
  auto w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  // Crash on the 4th WAL append. Appends 1-3 are durable; the 4th leaves a
  // seeded short write (torn frame) and every later append fails.
  fault::FaultInjector::Global().ArmCrashAtOp(
      4, TestSeed(0xabc7), fault::SiteBit(fault::Site::kWalAppend));
  size_t ok_count = 0;
  for (const Op& op : ops) {
    if ((*w)->AppendUpdate(op.op, op.list, op.rows).ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, 3u);
  EXPECT_TRUE(fault::FaultInjector::Global().Crashed());
  fault::FaultInjector::Global().Disarm();

  // "Restart": replay accepts exactly the pre-crash records.
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(got.size(), ok_count);
  ExpectOpsEqual(got, ops, ok_count);
}

TEST(WalTest, InjectedAllocFailureInReplayIsTransient) {
  fault::ScopedDisarm disarm;
  const std::string path = TempPath("wal_allocfail.log");
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    AppendOps(**w, MakeOps(3, 0x5eed));
    ASSERT_TRUE((*w)->Close().ok());
  }
  fault::FaultInjector::Global().ArmTransientFirst(
      1, fault::SiteBit(fault::Site::kAlloc));
  std::vector<Op> got;
  auto stats = Collect(path, &got);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  fault::FaultInjector::Global().Disarm();
  auto retry = Collect(path, &got);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().records, 3u);
}

}  // namespace
}  // namespace intcomp

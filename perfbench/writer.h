// Open-loop writer over a durable LiveIndex: Insert/Remove batches at a
// fixed rate, CompactAsync whenever pending delta rows cross a threshold,
// and a model of every list kept in step with the acknowledged writes.
#ifndef PERFBENCH_WRITER_H_
#define PERFBENCH_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/thread_pool.h"
#include "storage/live_index.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

struct WriteRecord {
  uint32_t list = 0;
  bool insert = true;
  std::vector<uint32_t> rows;  // sorted, unique
};

struct WriterConfig {
  double rate = 100;            // writes/s
  size_t batch = 8;             // rows per write
  uint64_t compact_rows = 2000; // CompactAsync once delta rows reach this
  uint64_t seed = 1;
};

class Writer {
 public:
  // `live`, `pool` and `tracer` are borrowed and must outlive the writer.
  Writer(intcomp::storage::LiveIndex* live, intcomp::ThreadPool* pool,
         Lists model, uint64_t num_rows, const WriterConfig& config,
         Tracer* tracer);
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start();
  // Stops the schedule, joins the thread and waits for a running
  // compaction to finish.
  void Stop();
  // Latencies are kept only while recording is on.
  void SetRecording(bool on) { recording_.store(on); }
  // Writes acknowledged so far; the log prefix of that length is the
  // acknowledged history.
  uint64_t Applied() const { return applied_.load(std::memory_order_acquire); }

  // Valid after Stop().
  const std::vector<WriteRecord>& Log() const { return log_; }
  const Lists& Model() const { return model_; }
  const std::vector<double>& LatenciesMs() const { return latencies_ms_; }
  const std::vector<double>& SlipsMs() const { return slips_ms_; }
  const std::vector<double>& CompactSeconds() const { return compact_s_; }
  uint64_t Failures() const { return failures_; }
  uint64_t Attempted() const { return attempted_; }

 private:
  void Loop();
  void MaybeCompact();

  intcomp::storage::LiveIndex* live_;
  intcomp::ThreadPool* pool_;
  Lists model_;
  uint64_t num_rows_;
  WriterConfig config_;
  Tracer* tracer_;
  std::thread thread_;
  std::atomic<bool> stop_{false}, recording_{false};
  std::atomic<uint64_t> applied_{0};
  std::vector<WriteRecord> log_;
  std::vector<double> latencies_ms_, slips_ms_;
  uint64_t failures_ = 0, attempted_ = 0;

  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compacting_ = false;          // guarded by compact_mu_
  std::vector<double> compact_s_;    // guarded by compact_mu_
  uint64_t compact_failures_ = 0;    // guarded by compact_mu_
};

// Compares every list served by `snapshot` (through a cacheless service on
// `pool`) with `model`; returns the number of lists that differ.
size_t CountListMismatches(std::shared_ptr<const intcomp::IndexSnapshot> snapshot,
                           intcomp::ThreadPool* pool, const Lists& model);

}  // namespace perfbench

#endif  // PERFBENCH_WRITER_H_

#include "writer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "loadgen.h"
#include "service/sharded_index.h"

namespace perfbench {

Writer::Writer(intcomp::storage::LiveIndex* live, intcomp::ThreadPool* pool,
               Lists model, uint64_t num_rows, const WriterConfig& config,
               Tracer* tracer)
    : live_(live),
      pool_(pool),
      model_(std::move(model)),
      num_rows_(num_rows),
      config_(config),
      tracer_(tracer) {}

void Writer::Start() { thread_ = std::thread([this] { Loop(); }); }

void Writer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  std::unique_lock<std::mutex> lock(compact_mu_);
  compact_cv_.wait(lock, [&] { return !compacting_; });
  failures_ += compact_failures_;
  compact_failures_ = 0;
}

void Writer::Loop() {
  intcomp::Prng rng(config_.seed);
  const int64_t start = NowNs();
  double t = 0;
  while (!stop_.load()) {
    t += -std::log(1.0 - rng.NextDouble()) / config_.rate;
    const int64_t due = start + static_cast<int64_t>(t * 1e9);
    WriteRecord w;
    w.list = static_cast<uint32_t>(rng.NextBounded(model_.size()));
    const std::vector<uint32_t>& cur = model_[w.list];
    w.insert = cur.size() < 2 * config_.batch || rng.NextBounded(2) == 0;
    for (size_t i = 0; i < config_.batch; ++i) {
      w.rows.push_back(w.insert ? static_cast<uint32_t>(rng.NextBounded(num_rows_))
                                : cur[rng.NextBounded(cur.size())]);
    }
    std::sort(w.rows.begin(), w.rows.end());
    w.rows.erase(std::unique(w.rows.begin(), w.rows.end()), w.rows.end());

    const int64_t now = NowNs();
    const bool idle = now < due;
    if (idle) WaitUntil(due);
    if (stop_.load()) break;
    const int64_t sent = NowNs();
    intcomp::Status st;
    {
      ScopedSpan span(tracer_, w.insert ? "storage.insert" : "storage.remove");
      st = w.insert ? live_->Insert(w.list, w.rows)
                    : live_->Remove(w.list, w.rows);
    }
    const int64_t done = NowNs();
    ++attempted_;
    if (!st.ok()) {
      ++failures_;
      continue;
    }
    if (w.insert) {
      InsertRows(&model_[w.list], w.rows);
    } else {
      RemoveRows(&model_[w.list], w.rows);
    }
    log_.push_back(std::move(w));
    applied_.store(log_.size(), std::memory_order_release);
    if (recording_.load()) {
      latencies_ms_.push_back((done - due) / 1e6);
      if (idle) slips_ms_.push_back((sent - due) / 1e6);
    }
    MaybeCompact();
  }
}

void Writer::MaybeCompact() {
  if (live_->Stats().delta_rows < config_.compact_rows) return;
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (compacting_) return;
    compacting_ = true;
  }
  const int64_t begin = NowNs();
  live_->CompactAsync(pool_, [this, begin](intcomp::Status st) {
    const int64_t end = NowNs();
    tracer_->AddInterval("storage.compact", 0, 0, begin, end);
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (st.ok()) {
      compact_s_.push_back((end - begin) / 1e9);
    } else {
      ++compact_failures_;
    }
    compacting_ = false;
    compact_cv_.notify_all();
  });
}

size_t CountListMismatches(std::shared_ptr<const intcomp::IndexSnapshot> snapshot,
                           intcomp::ThreadPool* pool, const Lists& model) {
  intcomp::IndexServiceOptions options;
  options.cache_enabled = false;
  intcomp::IndexService service(std::move(snapshot), pool, options);
  size_t bad = 0;
  std::vector<uint32_t> rows;
  for (size_t l = 0; l < model.size(); ++l) {
    const intcomp::Status st =
        service.Query(intcomp::QueryPlan::Leaf(l), &rows);
    if (st.ok() && rows == model[l]) continue;
    if (bad++ < 5) {
      std::printf("mismatch list %zu ok=%d rows=%zu want=%zu\n", l, st.ok(),
                  rows.size(), model[l].size());
    }
  }
  return bad;
}

}  // namespace perfbench

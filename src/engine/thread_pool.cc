#include "engine/thread_pool.h"

#include <algorithm>

#include "common/fast_clock.h"
#include "common/usable_cpus.h"
#include "obs/explain.h"
#include "obs/trace.h"

namespace intcomp {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = UsableCpus();  // at least 1
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
    ++signal_epoch_;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Enqueue(size_t w, PoolTask task) {
  // Carry the submitter's open span (and its sampling decision) across the
  // thread boundary, so worker-side spans nest under it no matter which
  // worker ends up stealing the task. Checked only when tracing is on, so
  // the untraced enqueue path pays one relaxed load.
  if (obs::TraceEnabled()) {
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    if (ctx.inherited) {
      task = [ctx, inner = std::move(task)](size_t worker) {
        obs::ScopedTraceContext scope(ctx);
        inner(worker);
      };
    }
  }
  // Same handoff for an active explain capture: worker-side scopes attach
  // under the scope that was open at submit time.
  if (obs::ExplainActive()) {
    const obs::ExplainContext ectx = obs::CurrentExplainContext();
    task = [ectx, inner = std::move(task)](size_t worker) {
      obs::ScopedExplainContext scope(ectx);
      inner(worker);
    };
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(workers_[w]->mu);
    workers_[w]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++signal_epoch_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Submit(PoolTask task) {
  const size_t w =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  Enqueue(w, std::move(task));
}

void ThreadPool::SubmitTo(size_t w, PoolTask task) {
  Enqueue(w % workers_.size(), std::move(task));
}

bool ThreadPool::TryPopLocal(size_t id, PoolTask* task) {
  Worker& self = *workers_[id];
  std::lock_guard<std::mutex> lock(self.mu);
  if (self.tasks.empty()) return false;
  *task = std::move(self.tasks.back());
  self.tasks.pop_back();
  return true;
}

bool ThreadPool::TrySteal(size_t thief, PoolTask* task) {
  const size_t n = workers_.size();
  for (size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(thief + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) continue;
    *task = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    workers_[thief]->steals.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::RunTask(Worker& self, size_t id, PoolTask& task) {
  const uint64_t t0 = NowNs();
  task(id);
  self.busy_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  self.tasks_run.fetch_add(1, std::memory_order_relaxed);
  task = nullptr;  // release captures before signalling quiescence
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Empty critical section: pairs with the predicate check in Wait() so
    // the notify cannot fall between a waiter's check and its block.
    { std::lock_guard<std::mutex> lock(done_mu_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t id) {
  Worker& self = *workers_[id];
  for (;;) {
    PoolTask task;
    if (TryPopLocal(id, &task) || TrySteal(id, &task)) {
      RunTask(self, id, task);
      continue;
    }
    // Nothing anywhere: record the epoch, re-scan once (a task may have
    // been enqueued between the scans above and the epoch read), then
    // sleep until the epoch moves.
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      if (stop_) return;
      epoch = signal_epoch_;
    }
    if (TryPopLocal(id, &task) || TrySteal(id, &task)) {
      RunTask(self, id, task);
      continue;
    }
    const uint64_t i0 = NowNs();
    {
      std::unique_lock<std::mutex> lock(idle_mu_);
      work_cv_.wait(lock,
                    [&] { return stop_ || signal_epoch_ != epoch; });
      if (stop_) return;
    }
    self.idle_ns.fetch_add(NowNs() - i0, std::memory_order_relaxed);
  }
}

void ThreadPool::Wait() {
  if (pending_.load(std::memory_order_acquire) == 0) return;
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end,
    const std::function<void(size_t index, size_t worker)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  // A few chunks per worker so stealing can rebalance skewed costs without
  // paying one enqueue per index.
  const size_t chunks = std::min(n, NumWorkers() * 4);
  const size_t per = (n + chunks - 1) / chunks;
  for (size_t lo = begin; lo < end; lo += per) {
    const size_t hi = std::min(end, lo + per);
    Submit([lo, hi, &fn](size_t worker) {
      for (size_t i = lo; i < hi; ++i) fn(i, worker);
    });
  }
  Wait();
}

}  // namespace intcomp

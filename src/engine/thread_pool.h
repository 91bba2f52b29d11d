// Fixed-size work-stealing thread pool for the batch query engine.
//
// Each worker owns a deque: the owner pushes and pops at the back (LIFO,
// cache-warm), idle workers steal from the front of a victim's deque (FIFO,
// oldest task first — the classic work-stealing discipline). Deques are
// mutex-protected rather than lock-free: tasks here are whole queries
// (microseconds to milliseconds), so the lock is noise, and the simple
// design is trivially clean under -fsanitize=thread.
//
// The pool is a quiescence-based batch facility, not a futures library:
// Submit() enqueues fire-and-forget tasks, Wait() blocks until *all*
// submitted tasks have finished. One batch owner drives the pool at a time
// (the BatchExecutor); Submit itself is thread-safe so running tasks may
// spawn subtasks.

#ifndef INTCOMP_ENGINE_THREAD_POOL_H_
#define INTCOMP_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace intcomp {

// Tasks receive the index of the worker executing them (0 .. NumWorkers()-1)
// so they can address per-worker state (scratch arenas, counters) without
// synchronization.
using PoolTask = std::function<void(size_t worker)>;

class ThreadPool {
 public:
  // Spawns `num_threads` workers. Pass 0 to use one per CPU the process
  // may run on (common/usable_cpus.h).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumWorkers() const { return workers_.size(); }

  // Enqueues `task` on a worker deque (round-robin across workers so a
  // burst of submissions spreads before stealing has to kick in).
  void Submit(PoolTask task);

  // Enqueues `task` on worker `w`'s deque specifically.
  void SubmitTo(size_t w, PoolTask task);

  // Blocks until every submitted task has completed (pool quiescent).
  void Wait();

  // Runs fn(i, worker) for i in [begin, end), spread over the workers in
  // contiguous chunks, and blocks until done. Several chunks per worker are
  // created so stealing can rebalance uneven iteration costs.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t index, size_t worker)>& fn);

  // Monotonic per-worker counters since pool construction. Callers that
  // need per-batch numbers snapshot before/after (see BatchExecutor).
  uint64_t Steals(size_t w) const { return workers_[w]->steals.load(std::memory_order_relaxed); }
  uint64_t TasksRun(size_t w) const { return workers_[w]->tasks_run.load(std::memory_order_relaxed); }
  uint64_t BusyNs(size_t w) const { return workers_[w]->busy_ns.load(std::memory_order_relaxed); }
  uint64_t IdleNs(size_t w) const { return workers_[w]->idle_ns.load(std::memory_order_relaxed); }

 private:
  // Padded so one worker's hot counters never share a cache line with a
  // sibling's.
  struct alignas(64) Worker {
    std::mutex mu;
    std::deque<PoolTask> tasks;  // guarded by mu
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> idle_ns{0};
  };

  void WorkerLoop(size_t id);
  void RunTask(Worker& self, size_t id, PoolTask& task);
  bool TryPopLocal(size_t id, PoolTask* task);
  bool TrySteal(size_t thief, PoolTask* task);
  void Enqueue(size_t w, PoolTask task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::atomic<size_t> next_worker_{0};  // round-robin submission cursor
  std::atomic<size_t> pending_{0};      // submitted but not yet finished

  // Sleep/wake protocol: every Enqueue bumps `signal_epoch_` under
  // `idle_mu_`; a worker records the epoch before its final empty scan and
  // sleeps only if the epoch is unchanged, so a submission racing the scan
  // can never be missed.
  std::mutex idle_mu_;
  std::condition_variable work_cv_;
  uint64_t signal_epoch_ = 0;  // guarded by idle_mu_
  bool stop_ = false;          // guarded by idle_mu_

  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace intcomp

#endif  // INTCOMP_ENGINE_THREAD_POOL_H_

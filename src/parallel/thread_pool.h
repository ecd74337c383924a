#pragma once
/// \file thread_pool.h
/// \brief Work-stealing thread pool + cooperative cancellation.
///
/// The Engine runs whole verification jobs on this pool, one job per
/// worker; the simulation batches behind CMA-ES training and
/// falsification run on it too. ICP queries never use it: each query
/// searches on its caller's thread, so a job's verdict cannot depend on
/// the pool size or load. Design points:
///
///  * **Work stealing.** Each worker owns a deque guarded by its own
///    mutex. Owners pop from the front (FIFO for externally submitted
///    tasks, which keeps `submit` ordering intuitive); idle workers steal
///    from the back of a victim's deque. Contention is limited to one
///    brief lock per push/pop, never a global queue lock on the hot path.
///  * **Helping wait.** Blocking operations (`run_on_workers`,
///    `parallel_for`) make the calling thread execute tasks too, so they
///    are safe to call from inside a worker (nested parallelism cannot
///    deadlock) and degrade gracefully on a 1-core machine.
///  * **Cancellation.** `CancellationToken` is a shared atomic flag that
///    long-running tasks poll; the Engine's per-job token interrupts the
///    job's ICP queries (`IcpConfig::interrupt`) and simplex loops.
///  * **Determinism contract.** The pool never reorders *results*: all
///    deterministic callers (CMA-ES, falsifier) index their output slots
///    up front, so answers are byte-identical for any pool size.
///
/// Thread count resolution: `core::RuntimeConfig::active().threads` when
/// positive (the typed home of the `BCERT_THREADS` environment knob),
/// otherwise `std::thread::hardware_concurrency()`.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace bcert::parallel {

/// Cooperative cancellation flag shared between a controller and its
/// workers. Cheap to poll (relaxed-ish atomics), safe to set from any
/// thread, latched until reset().
class CancellationToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }
  void reset() noexcept { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Worker count honoring the BCERT_THREADS override (≥ 1 always).
std::size_t default_thread_count();

/// Resolves a user-facing `threads` knob: values > 0 are taken verbatim,
/// anything else (0 = "auto", negatives) falls back to
/// default_thread_count(). All parallelism knobs in the library
/// (EngineOptions::threads, FalsifierOptions::threads,
/// CmaesOptions::eval_threads, TrainOptions::threads) share these
/// semantics.
inline int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(default_thread_count());
}

/// Work-stealing pool of persistent worker threads.
class ThreadPool {
 public:
  /// Spawns \p threads workers; 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues \p fn and returns a future for its result. Exceptions
  /// thrown by \p fn propagate through the future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs fn(0), ..., fn(n-1) concurrently and blocks until all have
  /// finished. The calling thread participates (it runs fn(0) and then
  /// helps drain the pool), so every strand makes progress even on a
  /// pool smaller than \p n and nested calls cannot deadlock.
  /// The first exception thrown by any strand is rethrown to the caller
  /// after all strands finish.
  void run_on_workers(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked parallel loop over [begin, end): fn(chunk_begin, chunk_end)
  /// is called on chunks of at most \p grain indices. Blocking; the
  /// caller participates. \p cancel (optional) is polled between chunks.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    const CancellationToken* cancel = nullptr);

  /// Process-wide shared pool, lazily constructed with
  /// default_thread_count() workers. Subsystems that want parallelism
  /// without owning a pool (CMA-ES, falsifier) use this.
  static ThreadPool& global();

 private:
  using Task = std::function<void()>;

  struct WorkerQueue {
    std::mutex m;
    std::deque<Task> q;
  };

  void enqueue(Task task);
  /// Pops a task: own queue front first, then steals from the back of
  /// the other queues. Returns false when no task was found anywhere.
  bool try_pop(std::size_t self, Task& out);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> pending_{0};  ///< tasks enqueued, not yet claimed
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace bcert::parallel

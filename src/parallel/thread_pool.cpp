#include "src/parallel/thread_pool.h"

#include <algorithm>
#include <exception>

#include "src/core/runtime_config.h"

namespace bcert::parallel {

std::size_t default_thread_count() {
  const int configured = core::RuntimeConfig::active().threads;
  if (configured > 0) return static_cast<std::size_t>(configured);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_thread_count() : threads;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  // Set stop_ under sleep_mutex_, like enqueue's pending_: a worker
  // between its predicate check and blocking would otherwise miss the
  // notify_all and sleep forever, hanging the join below.
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::enqueue(Task task) {
  const std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  // pending_ is incremented under sleep_mutex_ and *before* the push:
  // holding the mutex means a worker mid-wait either sees the new count
  // in its predicate or is already blocked when notify_one fires (no
  // lost wakeup), and incrementing first keeps pending_ >= the number of
  // queued tasks, so a concurrent try_pop can never underflow it.
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->m);
    queues_[target]->q.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, Task& out) {
  const std::size_t n = queues_.size();
  // Own queue: pop the front (oldest task first → FIFO for submit()).
  {
    WorkerQueue& mine = *queues_[self % n];
    std::lock_guard<std::mutex> lock(mine.m);
    if (!mine.q.empty()) {
      out = std::move(mine.q.front());
      mine.q.pop_front();
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  // Steal from the back of the other queues.
  for (std::size_t k = 1; k < n; ++k) {
    WorkerQueue& victim = *queues_[(self + k) % n];
    std::lock_guard<std::mutex> lock(victim.m);
    if (!victim.q.empty()) {
      out = std::move(victim.q.back());
      victim.q.pop_back();
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  Task task;
  while (true) {
    if (try_pop(index, task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::run_on_workers(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> remaining{n};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto strand = [&](std::size_t index) {
    try {
      fn(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    remaining.fetch_sub(1, std::memory_order_acq_rel);
  };

  for (std::size_t i = 1; i < n; ++i) {
    enqueue([strand, i] { strand(i); });
  }
  strand(0);

  // Helping wait: drain pool tasks until every strand has retired. The
  // tasks we execute here may be unrelated work, which is fine — it only
  // speeds up overall progress.
  Task task;
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (try_pop(0, task)) {
      task();
      task = nullptr;
    } else {
      std::this_thread::yield();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn,
    const CancellationToken* cancel) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t total = end - begin;
  const std::size_t chunks = (total + grain - 1) / grain;
  const std::size_t strands = std::min(chunks, size() + 1);

  std::atomic<std::size_t> next_chunk{0};
  run_on_workers(strands, [&](std::size_t) {
    while (true) {
      if (cancel != nullptr && cancel->cancelled()) return;
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      fn(lo, hi);
    }
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace bcert::parallel

// Tests for the work-stealing ThreadPool and CancellationToken.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/parallel/thread_pool.h"

namespace bcert::parallel {
namespace {

TEST(CancellationToken, LatchesAndResets) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(DefaultThreadCount, HonorsEnvOverride) {
  const char* saved = std::getenv("BCERT_THREADS");
  const std::string saved_value = saved ? saved : "";
  setenv("BCERT_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  setenv("BCERT_THREADS", "0", 1);  // non-positive → fall back to hardware
  EXPECT_GE(default_thread_count(), 1u);
  if (saved) {
    setenv("BCERT_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("BCERT_THREADS");
  }
}

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex m;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i, &order, &m] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives the exception and keeps serving tasks.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, RunOnWorkersRunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(17);
  pool.run_on_workers(17, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunOnWorkersRethrowsStrandError) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_on_workers(8,
                          [&](std::size_t i) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                            if (i == 3) throw std::logic_error("strand 3");
                          }),
      std::logic_error);
  // Every strand still ran to completion before the rethrow.
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 7, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(hi, kN);
    ASSERT_LE(hi - lo, 7u);
    for (std::size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHonorsPreCancelledToken) {
  ThreadPool pool(2);
  CancellationToken token;
  token.cancel();
  std::atomic<std::size_t> executed{0};
  pool.parallel_for(
      0, 10000, 10,
      [&](std::size_t lo, std::size_t hi) {
        executed.fetch_add(hi - lo, std::memory_order_relaxed);
      },
      &token);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ThreadPool, ParallelForStopsAfterMidRunCancellation) {
  ThreadPool pool(2);
  CancellationToken token;
  std::atomic<std::size_t> executed{0};
  pool.parallel_for(
      0, 100000, 1,
      [&](std::size_t lo, std::size_t) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (lo >= 50) token.cancel();
      },
      &token);
  EXPECT_LT(executed.load(), 100000u);
}

TEST(ThreadPool, NestedRunOnWorkersDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.run_on_workers(4, [&](std::size_t) {
    pool.run_on_workers(4, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, DestructionNeverStrandsAnIdleWorker) {
  // The destructor's stop signal must reach a worker caught between its
  // wait predicate and blocking; a lost wakeup hangs the join forever
  // (the test's TIMEOUT then names it). Sweeping the destruction time
  // across the worker's first wait hit that window in about half of the
  // runs of this loop before the stop flag was set under the pool's
  // sleep mutex.
  for (int i = 0; i < 20000; ++i) {
    ThreadPool pool(1);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds((i * 997) % 60000);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
  EXPECT_EQ(ThreadPool::global().submit([] { return 41 + 1; }).get(), 42);
}

}  // namespace
}  // namespace bcert::parallel

// Unit tests for the thread pool used by the transfer pipeline.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace qip {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&] { ++count; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(500, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), hw);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, OversubscriptionCappedToHardwareByDefault) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  {
    ThreadPool pool(hw + 13);
    EXPECT_EQ(pool.size(), hw);
  }
  {
    // Within the hardware budget the request is honored exactly.
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
  }
  {
    // The opt-out spawns exactly what was asked for.
    ThreadPool pool(hw + 3, /*cap_to_hardware=*/false);
    EXPECT_EQ(pool.size(), hw + 3);
  }
}

TEST(ThreadPool, ManyWaitingTasksDrainOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 64; ++i)
      futs.push_back(pool.submit([&] { ++count; }));
    for (auto& f : futs) f.get();
  }  // destructor joins
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedSubmissionFromWorker) {
  // The outer task parks in inner.get(), so a second live worker must
  // exist: opt out of the hardware cap (single-core CI would otherwise
  // shrink the pool to one worker and deadlock this pattern).
  ThreadPool pool(3, /*cap_to_hardware=*/false);
  auto outer = pool.submit([&] {
    auto inner = pool.submit([] { return 5; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 6);
}

TEST(ThreadPool, ParallelForBatchesIndicesIntoBlocks) {
  // With block-ranged dispatch the pool must still cover every index
  // exactly once when n is much larger than the worker count, not a
  // multiple of it, or smaller than it.
  for (std::size_t n : {1u, 3u, 7u, 64u, 1000u, 10001u}) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  // Uncapped: the abandoned-block bound below assumes 4 blocks of 250,
  // which needs the pool to really have 4 workers.
  ThreadPool pool(4, /*cap_to_hardware=*/false);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(1000, [&](std::size_t i) {
      if (i == 137) throw std::runtime_error("boom at 137");
      ++completed;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 137");
  }
  // The throwing block abandons its remaining indices, but every other
  // block runs to completion before parallel_for rethrows — no task may
  // outlive the call (the callable is a reference to a dead frame then).
  EXPECT_GE(completed.load(), 750);
  EXPECT_LT(completed.load(), 1000);
}

TEST(ThreadPool, ExceptionsFromManyConcurrentSubmitsAllPropagate) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([i]() -> int {
      if (i % 3 == 0) throw std::invalid_argument("bad " + std::to_string(i));
      return i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    if (i % 3 == 0) {
      EXPECT_THROW((void)futs[static_cast<std::size_t>(i)].get(),
                   std::invalid_argument);
    } else {
      EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i);
    }
  }
}

TEST(ThreadPool, ShutdownDrainsQueueWithoutGettingFutures) {
  // Futures are deliberately not waited on before the destructor runs:
  // shutdown must still execute every queued task (never drop work), and
  // the futures must all be ready afterwards.
  std::vector<std::future<void>> futs;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      futs.push_back(pool.submit([&ran] { ++ran; }));
  }
  EXPECT_EQ(ran.load(), 100);
  for (auto& f : futs)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
}

TEST(ThreadPool, ConcurrentShutdownWithExternalSubmitters) {
  // Threads race task submission against pool destruction. Submissions
  // stop before the destructor starts (submitting to a destructed pool is
  // out of contract), but the teardown overlaps with workers still
  // executing: TSan verifies the stop-flag/condvar handshake.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futs(64);
    {
      // Uncapped: the teardown handshake needs several real workers to
      // overlap with the destructor even on single-core CI.
      ThreadPool pool(3, /*cap_to_hardware=*/false);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&pool, &futs, &ran, t] {
          for (int i = 0; i < 16; ++i)
            futs[static_cast<std::size_t>(t * 16 + i)] =
                pool.submit([&ran] { ++ran; });
        });
      }
      for (auto& s : submitters) s.join();
    }  // destructor drains while workers are mid-task
    for (auto& f : futs) f.get();
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPool, ScopedWidthCapsParallelForConcurrency) {
  ThreadPool pool(4, /*cap_to_hardware=*/false);
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  {
    ThreadPool::ScopedWidth cap(2);
    EXPECT_EQ(ThreadPool::width_cap(), 2u);
    pool.parallel_for(64, [&](std::size_t) {
      const int now = active.fetch_add(1) + 1;
      int hw = high_water.load();
      while (now > hw && !high_water.compare_exchange_weak(hw, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      active.fetch_sub(1);
    });
  }
  EXPECT_EQ(ThreadPool::width_cap(), 0u);  // restored on scope exit
  // At most `width` strands (caller + 1 helper) may run the body at once,
  // even though the pool has 4 workers.
  EXPECT_LE(high_water.load(), 2);
  EXPECT_GE(high_water.load(), 1);
}

TEST(ThreadPool, ScopedWidthOneRunsEntirelyInline) {
  ThreadPool pool(4, /*cap_to_hardware=*/false);
  ThreadPool::ScopedWidth cap(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  pool.parallel_for(100, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ThreadPool, ScopedWidthNestsAndRestores) {
  ThreadPool::ScopedWidth outer(3);
  EXPECT_EQ(ThreadPool::width_cap(), 3u);
  {
    ThreadPool::ScopedWidth inner(1);
    EXPECT_EQ(ThreadPool::width_cap(), 1u);
  }
  EXPECT_EQ(ThreadPool::width_cap(), 3u);
}

TEST(ThreadPool, PlainSubmitsRunInFifoOrder) {
  // One worker, parked on a promise while the batch is enqueued: plain
  // jobs must then start in exactly the order they were submitted.
  ThreadPool pool(1, /*cap_to_hardware=*/false);
  std::promise<void> release;
  auto blocker = pool.submit([&] { release.get_future().wait(); });

  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(pool.submit([&order, i] { order.push_back(i); }));

  release.set_value();
  blocker.get();
  for (auto& f : futs) f.get();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ContinuationPriorityLetsHelpersJumpABacklog) {
  // The multi-core serving defect this repo fixed: parallel_for helper
  // tasks used to be enqueued FIFO-back, behind every queued job, so
  // under a backlog the caller drained all blocks alone. Helpers are
  // continuations and jump the queue, so the idle-soon worker picks one
  // up next and shares the blocks.
  //
  // Layout: 2 workers. Worker A is parked; worker B chews through a
  // backlog of slow jobs whose total run time far exceeds the caller's
  // own parallel_for drain. B reaches the helper after at most one job,
  // so the caller's share stays below 100%.
  ThreadPool pool(2, /*cap_to_hardware=*/false);
  std::promise<void> park;
  auto parked = pool.submit([&] { park.get_future().wait(); });
  std::vector<std::future<void>> backlog;
  for (int i = 0; i < 20; ++i)
    backlog.push_back(pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); }));

  pool.reset_scheduler_stats();
  pool.parallel_for(8, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  const ThreadPool::SchedulerStats st = pool.scheduler_stats();

  park.set_value();
  parked.get();
  for (auto& f : backlog) f.get();

  ASSERT_GT(st.pf_blocks, 0u);
  // The helper must have claimed at least one block.
  EXPECT_LT(st.pf_blocks_caller, st.pf_blocks);
}

TEST(ThreadPool, NestedParallelForUnderSaturatedAdmissionWindow) {
  // Serving-shaped stress (run under tsan): a bounded admission window
  // is kept saturated by outside submitters while every job itself nests
  // pool work (submit-from-worker + parallel_for under a width cap).
  // Must terminate with every job run exactly once and no deadlock.
  ThreadPool pool(3, /*cap_to_hardware=*/false);
  constexpr int kJobs = 48;
  constexpr int kWindow = 4;

  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;

  std::atomic<int> done{0};
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  futs.reserve(kJobs);

  for (int j = 0; j < kJobs; ++j) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return in_flight < kWindow; });
      ++in_flight;
    }
    futs.push_back(pool.submit([&, j] {
      ThreadPool::ScopedWidth cap(j % 2 ? 1u : 2u);
      pool.parallel_for(32, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i) + 1, std::memory_order_relaxed);
      });
      if (j % 3 == 0) {
        // Nested plain submission from inside a worker, waited on.
        auto inner = pool.submit([] { return 7; });
        sum.fetch_add(inner.get(), std::memory_order_relaxed);
      }
      done.fetch_add(1);
      {
        std::lock_guard<std::mutex> lk(mu);
        --in_flight;
      }
      cv.notify_one();
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(done.load(), kJobs);
  const long per_job = 32L * 33L / 2L;
  const long nested = 7L * ((kJobs + 2) / 3);
  EXPECT_EQ(sum.load(), per_job * kJobs + nested);
}

}  // namespace
}  // namespace qip

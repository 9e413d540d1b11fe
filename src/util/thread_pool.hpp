#pragma once

// Fixed-size thread pool used by the parallel transfer pipeline (paper
// Sec. VI-E) and by the benchmark harnesses. Deliberately simple: a
// mutex-protected FIFO is more than enough for slice-granular tasks whose
// bodies run for milliseconds.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qip {

/// Join-on-destruction thread pool with a submit()->future interface.
///
/// Worker-count policy: 0 asks for one worker per hardware thread, and
/// by default any request is capped at the hardware thread count —
/// oversubscribing a compute-bound pool only adds context-switch
/// overhead on small machines. Pass cap_to_hardware = false for the
/// rare caller that genuinely wants more workers than cores (e.g. tests
/// that need a guaranteed minimum pool size to stress the queue
/// handoff, or blocking tasks that park in submit()->get() chains).
///
/// Queue discipline: submit() appends to the back of one FIFO, so
/// independent jobs start in submission order. parallel_for() helper
/// tasks are *continuations* of a job that is already running, and
/// jump to the front of the queue — otherwise, under a backlog of
/// queued jobs, a running job's fan-out would be scheduled behind every
/// waiting job and its caller would end up draining all blocks alone
/// (intra-job parallelism silently degrades to serial under load;
/// bench/suite reports this as pool.caller_drain_share, see
/// docs/SERVING.md).
class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads, bool cap_to_hardware = true) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    if (num_threads == 0) num_threads = hw;
    if (cap_to_hardware) num_threads = std::min(num_threads, hw);
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Scoped fan-out cap for parallel_for calls made by the current
  /// thread (and, transitively, by the helper tasks those calls spawn):
  /// at most `width` strands — including the calling thread — work on
  /// one parallel_for, leaving the remaining workers free for other
  /// jobs. This is how the serving scheduler shards one pool across
  /// concurrent large jobs instead of letting the first job's fan-out
  /// occupy every worker. 0 means uncapped. The cap is thread-local
  /// state shared by all pools the thread touches while it is alive.
  class ScopedWidth {
   public:
    explicit ScopedWidth(unsigned width) : prev_(cap_ref()) {
      cap_ref() = width;
    }
    ~ScopedWidth() { cap_ref() = prev_; }
    ScopedWidth(const ScopedWidth&) = delete;
    ScopedWidth& operator=(const ScopedWidth&) = delete;

   private:
    friend class ThreadPool;
    static unsigned& cap_ref() {
      static thread_local unsigned cap = 0;
      return cap;
    }
    unsigned prev_;
  };

  /// The calling thread's current parallel_for width cap (0 = uncapped).
  static unsigned width_cap() { return ScopedWidth::cap_ref(); }

  /// Cheap scheduling counters, for harnesses that want to see whether
  /// intra-job fan-out actually got helpers or degraded to the caller
  /// draining every block itself (the defect that front-of-queue
  /// continuations fix). Relaxed atomics; totals are exact once the pool
  /// is idle.
  struct SchedulerStats {
    std::uint64_t pf_blocks = 0;         ///< parallel_for blocks executed
    std::uint64_t pf_blocks_caller = 0;  ///< ...drained by the submitting thread
  };
  SchedulerStats scheduler_stats() const {
    return {pf_blocks_.load(std::memory_order_relaxed),
            pf_blocks_caller_.load(std::memory_order_relaxed)};
  }
  void reset_scheduler_stats() {
    pf_blocks_.store(0, std::memory_order_relaxed);
    pf_blocks_caller_.store(0, std::memory_order_relaxed);
  }

  /// Enqueue a callable; the returned future carries its result/exception.
  template <class F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  ///
  /// Indices are dispatched as ceil(n/threads)-sized contiguous blocks —
  /// one shared work-stealing counter rather than one queue entry per
  /// index, so slice-granular callers with large n stop paying O(n)
  /// allocation and queue-lock traffic. The *calling* thread participates
  /// in draining blocks, which makes nested parallel_for calls (a pooled
  /// task that itself calls parallel_for on the same pool) deadlock-free:
  /// even with every worker busy, the caller makes progress by itself.
  /// If any invocation throws, that block is abandoned, the remaining
  /// blocks still run, and the first exception is rethrown here after all
  /// blocks have finished: `fn` and the caller's captures must stay alive
  /// until no worker can still touch them.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    // Honor the caller's ScopedWidth share: with a cap of w, blocks are
    // sized for w strands and at most w - 1 helpers are enqueued, so
    // the remaining workers stay free for other jobs. Uncapped callers
    // get the historic one-block-per-worker split.
    const unsigned cap = width_cap();
    const std::size_t width =
        cap ? std::min<std::size_t>(cap, workers_.size()) : workers_.size();
    const std::size_t block = (n + width - 1) / width;
    if (n <= block) {  // single block: run inline, skip the queue entirely
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    const std::size_t nblocks = (n + block - 1) / block;

    struct PFState {
      const std::function<void(std::size_t)>* fn;
      std::size_t n, block, nblocks;
      unsigned width_cap;
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> done{0};
      std::mutex mu;
      std::condition_variable cv;
      std::exception_ptr err;
    };
    auto st = std::make_shared<PFState>();
    st->fn = &fn;
    st->n = n;
    st->block = block;
    st->nblocks = nblocks;
    st->width_cap = cap;

    // Drain blocks until the counter runs out. Helper jobs that get
    // scheduled after all blocks are claimed see next >= nblocks and
    // return without touching `fn`, so the pointer may dangle by then
    // but is never dereferenced.
    auto drain = [st, this](bool is_caller) {
      // Helpers inherit the submitting thread's width cap so fan-out
      // nested inside `fn` stays within the same pool share.
      ScopedWidth inherit(st->width_cap);
      for (;;) {
        const std::size_t b = st->next.fetch_add(1, std::memory_order_relaxed);
        if (b >= st->nblocks) return;
        pf_blocks_.fetch_add(1, std::memory_order_relaxed);
        if (is_caller) pf_blocks_caller_.fetch_add(1, std::memory_order_relaxed);
        try {
          const std::size_t lo = b * st->block;
          const std::size_t hi = std::min(st->n, lo + st->block);
          for (std::size_t i = lo; i < hi; ++i) (*st->fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(st->mu);
          if (!st->err) st->err = std::current_exception();
        }
        if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            st->nblocks) {
          // Lock pairs with the waiter's predicate check so the notify
          // cannot fire between its load of done and its wait.
          std::lock_guard<std::mutex> lk(st->mu);
          st->cv.notify_all();
        }
      }
    };

    // At most width - 1 helpers: the caller always takes a share, and a
    // capped call leaves the rest of the pool to other jobs.
    const std::size_t helpers = std::min<std::size_t>(width - 1, nblocks - 1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (std::size_t i = 0; i < helpers; ++i)
        queue_.emplace_front([drain] { drain(false); });
    }
    if (helpers == 1)
      cv_.notify_one();
    else
      cv_.notify_all();

    drain(true);  // caller participates
    {
      std::unique_lock<std::mutex> lk(st->mu);
      st->cv.wait(lk, [&] {
        return st->done.load(std::memory_order_acquire) == st->nblocks;
      });
    }
    if (st->err) std::rethrow_exception(st->err);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> pf_blocks_{0};
  std::atomic<std::uint64_t> pf_blocks_caller_{0};
};

}  // namespace qip

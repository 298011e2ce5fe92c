#pragma once
// Shared-memory parallelism for parameter sweeps.
//
// The discrete-event simulator itself is deterministic and single-threaded;
// parallelism in greenhpc lives one level up — design-space exploration,
// multi-seed replicas and calibration sweeps all fan out over independent
// work items. ThreadPool provides a contention-light dynamically
// self-scheduled parallel_for with chunking, which is the right shape for
// these uniform-to-mildly-skewed workloads, and an ordered streaming loop
// whose results are committed on the calling thread in index order while
// later iterations still run (the sweep engine's fold).
//
// Dispatch model: the calling thread is part of the team (it executes
// chunks alongside the workers, OpenMP-style), and loops fall back to a
// plain serial loop when parallel dispatch provably cannot win — a
// single-worker pool, a single chunk, or a nested call from inside a
// parallel region. The fallback is what keeps small sweeps from paying
// wakeup latency for nothing: below the crossover, "parallel" IS the
// serial loop.
//
// The entry points are templates, so the body is invoked directly within
// a chunk — the type-erasure cost (one indirect call) is paid per chunk,
// not per iteration.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace greenhpc::util {

namespace detail {
/// Out-of-line observability hook (defined in parallel.cpp): counts
/// serial-fallback dispatches without pulling obs headers into this
/// template header. Called once per fallen-back loop, not per iteration.
void note_pool_serial_fallback();
}  // namespace detail

class ThreadPool {
 public:
  /// Pool with `threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Chunked parallel loop: run body(i) for each i in [0, n), blocking
  /// until all iterations finish; iterations must be independent. They
  /// are handed out to the team (workers + the calling thread) `grain` at
  /// a time, and the body is called directly inside each chunk — no
  /// per-iteration type erasure. grain == 1 makes every iteration its own
  /// dispatch unit (the shape for coarse, skewed work items); grain == 0
  /// picks a heuristic grain (enough chunks for dynamic load balance, few
  /// enough that dispatch cost stays invisible). Falls back to a serial
  /// loop below the crossover (single-worker pool, a single chunk, or a
  /// nested call). Results written to preallocated slots are bit-identical
  /// for every thread count including the serial fallback.
  ///
  /// Exception contract: the first exception a body throws is captured
  /// and rethrown on the calling thread after the loop quiesces — never
  /// swallowed, never a call to std::terminate, never a deadlocked
  /// caller. Once a task has failed, chunks that have not yet started are
  /// abandoned (their iterations do not run), in-flight chunks finish, and
  /// later exceptions are dropped. The pool itself is left fully usable:
  /// workers survive, and the next parallel loop behaves as if the failure
  /// never happened. On the serial-fallback path the exception propagates
  /// directly from the body at the throwing iteration, which satisfies the
  /// same contract.
  template <typename Body>
  void parallel_for_chunked(std::size_t n, std::size_t grain, Body&& body) {
    if (n == 0) return;
    if (grain == 0) grain = default_grain(n);
    const std::size_t chunks = (n + grain - 1) / grain;
    if (chunks <= 1 || workers_.size() <= 1 || in_parallel_region()) {
      detail::note_pool_serial_fallback();
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    using Fn = std::remove_reference_t<Body>;
    Task task;
    task.work = task.lead = &run_chunks;
    task.invoke = [](void* ctx, std::size_t begin, std::size_t end) {
      Fn& f = *static_cast<Fn*>(ctx);
      for (std::size_t i = begin; i < end; ++i) f(i);
    };
    task.ctx = const_cast<void*>(static_cast<const void*>(&body));
    task.n = n;
    task.grain = grain;
    task.chunks = chunks;
    run_task(task);
  }

  /// Ordered streaming loop: run body(i) for each i in [0, n) over the
  /// team, and commit(i) on the calling thread, in index order, exactly
  /// once, after body(i) has returned. Iterations are claimed one at a
  /// time in index order; the caller is a team member and commits
  /// whatever is ready between its own iterations, then waits for the
  /// rest. This is the shape of a streamed fold: the commit side stays
  /// serial and ordered while later iterations are still running, with no
  /// barrier between groups of iterations.
  ///
  /// Window: no index is claimed `window` or more past the commit
  /// frontier, so body(i) starts only after commit(i - window) has
  /// returned. A ring of `window` slots indexed i % window can therefore
  /// carry results from body to commit without synchronization of its
  /// own. window == 0 is treated as 1.
  ///
  /// The body and the commit are type-erased (one indirect call per
  /// iteration each), so this is for coarse iterations. Threads that wait
  /// for the window or for the next ready index block on an atomic; none
  /// spins. Falls back to `body(i); commit(i);` for each i in turn on a
  /// single-worker pool, for n == 1, and in a nested call.
  ///
  /// Exception contract: the first exception thrown by a body or by a
  /// commit stops new claims and stops commits; in-flight bodies finish,
  /// and the exception is rethrown on the calling thread once the loop
  /// has quiesced. An index whose body threw is never committed, so no
  /// index at or past a failing body or commit is committed. Later
  /// exceptions are dropped, and the pool stays fully usable.
  template <typename Body, typename Commit>
  void parallel_for_ordered(std::size_t n, std::size_t window, Body&& body,
                            Commit&& commit) {
    if (n == 0) return;
    if (n == 1 || workers_.size() <= 1 || in_parallel_region()) {
      detail::note_pool_serial_fallback();
      for (std::size_t i = 0; i < n; ++i) {
        body(i);
        commit(i);
      }
      return;
    }
    using B = std::remove_reference_t<Body>;
    using C = std::remove_reference_t<Commit>;
    run_ordered(
        n, window,
        [](void* ctx, std::size_t i) { (*static_cast<B*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(&body)),
        [](void* ctx, std::size_t i) { (*static_cast<C*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(&commit)));
  }

  /// Heuristic chunk size for n iterations on this pool: aims at ~8 chunks
  /// per team member so dynamic self-scheduling can absorb skew without
  /// the per-chunk dispatch showing up.
  [[nodiscard]] std::size_t default_grain(std::size_t n) const;

  /// Whether the current thread is already inside a parallel region (on a
  /// worker, or in a body fanned out by any pool); nested loops run
  /// serially.
  [[nodiscard]] static bool in_parallel_region();

  /// Process-wide default pool, lazily constructed on first use. Sizing
  /// precedence: configure_global() > GREENHPC_THREADS env var > hardware
  /// concurrency.
  static ThreadPool& global();

  /// Fix the global pool's thread count before its first use (e.g. from a
  /// --threads CLI flag). Throws InvalidArgument if the global pool has
  /// already been constructed — late reconfiguration would silently not
  /// apply.
  static void configure_global(std::size_t threads);

  /// Thread count requested by the GREENHPC_THREADS environment variable;
  /// 0 when unset, empty, or not a positive integer (= use hardware
  /// concurrency). Exposed for tests and for CLI --threads precedence.
  [[nodiscard]] static std::size_t env_thread_override();

 private:
  using IndexFn = void (*)(void*, std::size_t);
  struct OrderedLoop;

  struct Task {
    /// What each worker runs on the task, and what the calling thread
    /// runs alongside them.
    void (*work)(Task&) = nullptr;
    void (*lead)(Task&) = nullptr;
    /// Chunked loops: the body, and a type-erased chunk runner that calls
    /// it for each iteration in [begin, end). Ordered loops: the
    /// OrderedLoop.
    void* ctx = nullptr;
    void (*invoke)(void*, std::size_t, std::size_t) = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> remaining{0};
    /// Set when a body (or a commit) throws; executors observe it before
    /// claiming more work and abandon the rest of the loop
    /// (cancel-on-error).
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  /// Post the task to the workers, run task.lead on the calling thread,
  /// wait for completion and rethrow the first captured exception.
  void run_task(Task& task);
  void run_ordered(std::size_t n, std::size_t window, IndexFn body, void* body_ctx,
                   IndexFn commit, void* commit_ctx);
  void worker_loop();
  static void run_chunks(Task& task);
  static void run_ordered_worker(Task& task);
  static void run_ordered_lead(Task& task);
  /// Record the exception in flight as the task's failure (first wins).
  static void capture_failure(Task& task);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Task* current_ = nullptr;
  std::size_t generation_ = 0;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for_chunked.
template <typename Body>
void parallel_for_chunked(std::size_t n, std::size_t grain, Body&& body) {
  ThreadPool::global().parallel_for_chunked(n, grain, std::forward<Body>(body));
}

}  // namespace greenhpc::util

#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace greenhpc::util {

namespace detail {
void note_pool_serial_fallback() {
  static obs::Counter& serial =
      obs::Registry::global().counter("pool.serial_fallbacks");
  serial.add();
}
}  // namespace detail

namespace {
thread_local bool inside_parallel_region = false;

/// configure_global request (0 = none) and whether global() has run.
std::atomic<std::size_t> global_requested{0};
std::atomic<bool> global_constructed{false};
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_parallel_region() { return inside_parallel_region; }

std::size_t ThreadPool::default_grain(std::size_t n) const {
  // ~8 chunks per team member (workers + caller): enough slack for
  // dynamic load balance, few enough that per-chunk dispatch stays noise.
  const std::size_t team = workers_.size() + 1;
  return std::max<std::size_t>(1, n / (8 * team));
}

void ThreadPool::capture_failure(Task& task) {
  {
    std::lock_guard lock(task.error_mutex);
    if (!task.error) task.error = std::current_exception();
  }
  // The release pairs with the executors' acquire loads, so the caller's
  // rethrow happens-after the failing iteration's writes.
  task.failed.store(true, std::memory_order_release);
}

void ThreadPool::run_chunks(Task& task) {
  // Dynamic self-scheduling over a shared atomic chunk counter; the body
  // runs direct (non-erased) within a chunk, so the fetch_add and the one
  // indirect call are amortized over `grain` iterations.
  static obs::Counter& chunks_done = obs::Registry::global().counter("pool.chunks");
  for (;;) {
    // Cancel-on-error: once any chunk has thrown, the remaining chunks are
    // abandoned instead of burning the rest of the grid on a doomed task.
    if (task.failed.load(std::memory_order_acquire)) break;
    const std::size_t c = task.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= task.chunks) break;
    const std::size_t begin = c * task.grain;
    const std::size_t end = std::min(task.n, begin + task.grain);
    GREENHPC_TRACE_SPAN("pool.chunk");
    try {
      task.invoke(task.ctx, begin, end);
    } catch (...) {
      capture_failure(task);
    }
    chunks_done.add();
  }
}

// Shared state of one parallel_for_ordered loop. Indices flow through
// three counters: `next` (claimed so far), the bodies' `ready` flags, and
// `frontier` (committed so far, advanced only by the calling thread).
// Index i may be claimed only while i < frontier + window, so the ready
// flag of i lives in slot i % window and is free again once i - window
// has been committed.
struct ThreadPool::OrderedLoop {
  OrderedLoop(std::size_t n_, std::size_t window_, IndexFn body_, void* body_ctx_,
              IndexFn commit_, void* commit_ctx_)
      : n(n_), window(window_), body(body_), body_ctx(body_ctx_), commit(commit_),
        commit_ctx(commit_ctx_), ready(window_) {}

  std::size_t n;
  std::size_t window;
  IndexFn body;
  void* body_ctx;
  IndexFn commit;
  void* commit_ctx;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> frontier{0};
  std::vector<std::atomic<bool>> ready;
  /// Wait words (32-bit, so they map onto a futex). `commits` changes on
  /// every commit and on failure: workers waiting for window room block on
  /// it. `bodies` changes whenever a body returns or throws: the caller
  /// waiting for the next index to commit blocks on it.
  std::atomic<std::uint32_t> commits{0};
  std::atomic<std::uint32_t> bodies{0};

  void wake_workers() {
    commits.fetch_add(1, std::memory_order_release);
    commits.notify_all();
  }

  /// Claim the next index if it lies inside the window. With `wait`, block
  /// while the window is full; without, give up. False once every index
  /// is claimed or the loop has failed.
  bool claim(const Task& task, bool wait, std::size_t& out) {
    for (;;) {
      // Read the epoch before the frontier: a commit after this load
      // changes the epoch, so the wait below cannot miss it.
      const std::uint32_t epoch = commits.load(std::memory_order_acquire);
      if (task.failed.load(std::memory_order_acquire)) return false;
      std::size_t i = next.load(std::memory_order_relaxed);
      if (i >= n) return false;
      // The acquire pairs with the frontier's release store: commit(i -
      // window) has returned before body(i) may reuse its slot.
      if (i < frontier.load(std::memory_order_acquire) + window) {
        if (next.compare_exchange_weak(i, i + 1, std::memory_order_relaxed)) {
          out = i;
          return true;
        }
        continue;
      }
      if (!wait) return false;
      commits.wait(epoch, std::memory_order_acquire);
    }
  }

  void run_body(Task& task, std::size_t i) {
    static obs::Counter& chunks_done = obs::Registry::global().counter("pool.chunks");
    {
      GREENHPC_TRACE_SPAN("pool.chunk");
      try {
        body(body_ctx, i);
        ready[i % window].store(true, std::memory_order_release);
      } catch (...) {
        capture_failure(task);
        wake_workers();
      }
    }
    chunks_done.add();
    bodies.fetch_add(1, std::memory_order_release);
    bodies.notify_one();  // only the calling thread waits on it
  }
};

void ThreadPool::run_ordered_worker(Task& task) {
  OrderedLoop& loop = *static_cast<OrderedLoop*>(task.ctx);
  std::size_t i = 0;
  while (loop.claim(task, /*wait=*/true, i)) loop.run_body(task, i);
}

void ThreadPool::run_ordered_lead(Task& task) {
  OrderedLoop& loop = *static_cast<OrderedLoop*>(task.ctx);
  std::size_t f = 0;  // commit frontier; only this thread advances it
  while (f < loop.n && !task.failed.load(std::memory_order_acquire)) {
    std::atomic<bool>& next_ready = loop.ready[f % loop.window];
    if (next_ready.load(std::memory_order_acquire)) {
      next_ready.store(false, std::memory_order_relaxed);
      try {
        loop.commit(loop.commit_ctx, f);
      } catch (...) {
        capture_failure(task);
        loop.wake_workers();
        return;
      }
      loop.frontier.store(++f, std::memory_order_release);
      loop.wake_workers();
      continue;
    }
    // The next index is still running elsewhere: simulate one more if the
    // window allows, otherwise sleep until some body returns.
    std::size_t i = 0;
    if (loop.claim(task, /*wait=*/false, i)) {
      loop.run_body(task, i);
      continue;
    }
    const std::uint32_t seen = loop.bodies.load(std::memory_order_acquire);
    if (!next_ready.load(std::memory_order_acquire) &&
        !task.failed.load(std::memory_order_acquire)) {
      loop.bodies.wait(seen, std::memory_order_acquire);
    }
  }
}

void ThreadPool::run_ordered(std::size_t n, std::size_t window, IndexFn body,
                             void* body_ctx, IndexFn commit, void* commit_ctx) {
  OrderedLoop loop(n, std::max<std::size_t>(1, window), body, body_ctx, commit,
                   commit_ctx);
  Task task;
  task.work = &run_ordered_worker;
  task.lead = &run_ordered_lead;
  task.ctx = &loop;
  run_task(task);
}

void ThreadPool::worker_loop() {
  inside_parallel_region = true;  // bodies running on workers must not re-enter
  std::size_t seen_generation = 0;
  for (;;) {
    Task* task = nullptr;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (current_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      task = current_;
    }
    static obs::Counter& wakeups =
        obs::Registry::global().counter("pool.worker_wakeups");
    wakeups.add();
    task->work(*task);
    if (task->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_task(Task& task) {
  GREENHPC_TRACE_SPAN("pool.task");
  static obs::Counter& tasks = obs::Registry::global().counter("pool.tasks");
  tasks.add();
  inside_parallel_region = true;
  struct Reset {
    ~Reset() { inside_parallel_region = false; }
  } reset;
  task.remaining.store(workers_.size(), std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    current_ = &task;
    ++generation_;
  }
  work_cv_.notify_all();
  // The calling thread is part of the team: it chews chunks alongside the
  // workers instead of blocking, so a T-worker pool runs T+1 executors and
  // small fan-outs finish before some workers even wake.
  task.lead(task);
  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return task.remaining.load(std::memory_order_acquire) == 0; });
    current_ = nullptr;
  }
  if (task.error) std::rethrow_exception(task.error);
}

std::size_t ThreadPool::env_thread_override() {
  const char* env = std::getenv("GREENHPC_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long n = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || n <= 0) return 0;
  return static_cast<std::size_t>(n);
}

void ThreadPool::configure_global(std::size_t threads) {
  GREENHPC_REQUIRE(!global_constructed.load(std::memory_order_acquire),
                   "configure_global must run before the global pool's first use");
  global_requested.store(threads, std::memory_order_release);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    global_constructed.store(true, std::memory_order_release);
    const std::size_t requested = global_requested.load(std::memory_order_acquire);
    if (requested != 0) return requested;
    return env_thread_override();  // 0 falls through to hardware concurrency
  }());
  return pool;
}

}  // namespace greenhpc::util

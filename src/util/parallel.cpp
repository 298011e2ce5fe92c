#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
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

void ThreadPool::run_chunks(Task& task) {
  // Dynamic self-scheduling over a shared atomic chunk counter; the body
  // runs direct (non-erased) within a chunk, so the fetch_add and the one
  // indirect call are amortized over `grain` iterations.
  static obs::Counter& chunks_done = obs::Registry::global().counter("pool.chunks");
  for (;;) {
    // Cancel-on-error: once any chunk has thrown, the remaining chunks are
    // abandoned instead of burning the rest of the grid on a doomed task.
    // The acquire pairs with the release store below so the caller's
    // rethrow happens-after the failing chunk's writes.
    if (task.failed.load(std::memory_order_acquire)) break;
    const std::size_t c = task.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= task.chunks) break;
    const std::size_t begin = c * task.grain;
    const std::size_t end = std::min(task.n, begin + task.grain);
    GREENHPC_TRACE_SPAN("pool.chunk");
    try {
      task.invoke(task.ctx, begin, end);
    } catch (...) {
      {
        std::lock_guard lock(task.error_mutex);
        if (!task.error) task.error = std::current_exception();
      }
      task.failed.store(true, std::memory_order_release);
    }
    chunks_done.add();
  }
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
    run_chunks(*task);
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
  run_chunks(task);
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

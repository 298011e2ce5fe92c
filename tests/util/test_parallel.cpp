#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace greenhpc::util {
namespace {

TEST(ThreadPool, ExecutesAllIterationsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunked(hits.size(), 1, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for_chunked(0, 1, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallel_for_chunked(100, 1, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for_chunked(50, 1, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_chunked(100, 1,
                                         [&](std::size_t i) {
                                           if (i == 42) throw std::runtime_error("boom");
                                         }),
               std::runtime_error);
  // Pool survives the exception.
  std::atomic<int> count{0};
  pool.parallel_for_chunked(10, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsSerially) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for_chunked(8, 1, [&](std::size_t) {
    // Nested call must not deadlock; it degrades to serial execution.
    parallel_for_chunked(4, 1, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

TEST(ThreadPool, PreallocatedSlotWritesAreThreadCountInvariant) {
  // The sweep-runner pattern: each iteration computes into its own
  // preallocated slot, so the gathered results must be bit-identical
  // regardless of how many workers executed the loop.
  const auto work = [](std::size_t i) {
    double acc = 1.0 + static_cast<double>(i);
    for (int k = 0; k < 250; ++k) {
      acc = acc * 1.000000059604644775390625 + 1e-9 * static_cast<double>(k % 7);
    }
    return acc;
  };
  constexpr std::size_t kSlots = 512;
  std::vector<double> one(kSlots), many(kSlots);
  {
    ThreadPool pool(1);
    pool.parallel_for_chunked(kSlots, 1, [&](std::size_t i) { one[i] = work(i); });
  }
  {
    ThreadPool pool(8);
    pool.parallel_for_chunked(kSlots, 1, [&](std::size_t i) { many[i] = work(i); });
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(one[i]), std::bit_cast<std::uint64_t>(many[i]))
        << "slot " << i;
  }
}

TEST(ThreadPool, EnvThreadOverrideParsing) {
  // Save and restore whatever the harness environment carries.
  const char* saved = std::getenv("GREENHPC_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ASSERT_EQ(setenv("GREENHPC_THREADS", "7", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 7u);
  ASSERT_EQ(setenv("GREENHPC_THREADS", "1", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 1u);
  // Unset, empty, zero, negative and garbage all mean "no override".
  ASSERT_EQ(unsetenv("GREENHPC_THREADS"), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
  ASSERT_EQ(setenv("GREENHPC_THREADS", "", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
  ASSERT_EQ(setenv("GREENHPC_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
  ASSERT_EQ(setenv("GREENHPC_THREADS", "-3", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
  ASSERT_EQ(setenv("GREENHPC_THREADS", "lots", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);

  if (saved != nullptr) {
    ASSERT_EQ(setenv("GREENHPC_THREADS", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("GREENHPC_THREADS"), 0);
  }
}

TEST(ThreadPoolChunked, ExecutesAllIterationsExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for_chunked(hits.size(), grain,
                              [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ThreadPoolChunked, GrainLargerThanNFallsBackToSerial) {
  ThreadPool pool(4);
  // One chunk covers everything: the crossover logic must run the body
  // inline on the calling thread, in order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for_chunked(16, 100, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolChunked, SingleWorkerPoolFallsBackToSerial) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::size_t count = 0;  // not atomic: the fallback contract is serial
  pool.parallel_for_chunked(200, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;
  });
  EXPECT_EQ(count, 200u);
}

TEST(ThreadPoolChunked, ZeroGrainPicksHeuristic) {
  ThreadPool pool(3);
  // default_grain aims at ~8 chunks per team member and never returns 0.
  EXPECT_GE(pool.default_grain(1), 1u);
  EXPECT_GE(pool.default_grain(1000000), 1u);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for_chunked(hits.size(), 0,
                            [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolChunked, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_chunked(100, 4,
                                         [&](std::size_t i) {
                                           if (i == 42) throw std::runtime_error("boom");
                                         }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for_chunked(10, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolChunked, ExceptionContractHoldsUnderRepeatedFailures) {
  // The documented exception contract, hammered: the first exception is
  // rethrown on the calling thread, unstarted chunks are abandoned, and
  // the pool stays fully usable round after round. Runs clean under tsan
  // (the CI tsan job executes the ThreadPool* filters).
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::size_t> executed{0};
    bool caught = false;
    try {
      pool.parallel_for_chunked(10000, 8, [&](std::size_t i) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i == 3) throw std::runtime_error("round failure");
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "round failure");
    }
    EXPECT_TRUE(caught) << "round " << round;
    // Cancel-on-error: the failing chunk sits at the front, so the vast
    // majority of the 10k iterations must have been abandoned.
    EXPECT_LT(executed.load(), 10000u) << "round " << round;
    // Pool is unpoisoned: the next loop runs every iteration.
    std::atomic<std::size_t> count{0};
    pool.parallel_for_chunked(200, 4,
                              [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 200u) << "round " << round;
  }
}

TEST(ThreadPoolChunked, ConcurrentThrowersPropagateExactlyOne) {
  // Every chunk throws from every executor at once: exactly one exception
  // must surface on the caller (never terminate, never deadlock), and it
  // must be one of the thrown ones.
  ThreadPool pool(8);
  int caught = 0;
  try {
    pool.parallel_for_chunked(512, 1, [&](std::size_t i) {
      throw std::runtime_error("thrower " + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_EQ(std::string(e.what()).rfind("thrower ", 0), 0u);
  }
  EXPECT_EQ(caught, 1);
  std::atomic<int> count{0};
  pool.parallel_for_chunked(32, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolChunked, SerialFallbackPropagatesExceptionInPlace) {
  // Single-worker pools take the serial path; the contract degrades to a
  // plain loop: the exception propagates at the throwing iteration and
  // later iterations do not run.
  ThreadPool pool(1);
  std::size_t executed = 0;
  EXPECT_THROW(pool.parallel_for_chunked(100, 1,
                                         [&](std::size_t i) {
                                           ++executed;
                                           if (i == 5) {
                                             throw std::runtime_error("serial");
                                           }
                                         }),
               std::runtime_error);
  EXPECT_EQ(executed, 6u);
  std::size_t after = 0;
  pool.parallel_for_chunked(10, 1, [&](std::size_t) { ++after; });
  EXPECT_EQ(after, 10u);
}

TEST(ThreadPoolChunked, NestedCallRunsSerially) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for_chunked(8, 1, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    parallel_for_chunked(4, 1, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPoolChunked, PreallocatedSlotWritesAreThreadCountInvariant) {
  const auto work = [](std::size_t i) {
    double acc = 1.0 + static_cast<double>(i);
    for (int k = 0; k < 250; ++k) {
      acc = acc * 1.000000059604644775390625 + 1e-9 * static_cast<double>(k % 7);
    }
    return acc;
  };
  constexpr std::size_t kSlots = 512;
  std::vector<double> one(kSlots), many(kSlots);
  {
    ThreadPool pool(1);  // serial-fallback path
    pool.parallel_for_chunked(kSlots, 3, [&](std::size_t i) { one[i] = work(i); });
  }
  {
    ThreadPool pool(8);  // dispatched path
    pool.parallel_for_chunked(kSlots, 3, [&](std::size_t i) { many[i] = work(i); });
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(one[i]), std::bit_cast<std::uint64_t>(many[i]))
        << "slot " << i;
  }
}

TEST(ThreadPoolOrdered, CommitsInIndexOrderOnCallerExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 600;
    const auto caller = std::this_thread::get_id();
    std::vector<std::atomic<int>> bodies(kN);
    std::vector<std::size_t> commits;  // not atomic: commits are serial
    bool off_thread = false;
    bool before_body = false;
    pool.parallel_for_ordered(
        kN, 5, [&](std::size_t i) { bodies[i].fetch_add(1); },
        [&](std::size_t i) {
          off_thread |= std::this_thread::get_id() != caller;
          before_body |= bodies[i].load() != 1;
          commits.push_back(i);
        });
    EXPECT_FALSE(off_thread) << threads << " workers";
    EXPECT_FALSE(before_body) << threads << " workers";
    ASSERT_EQ(commits.size(), kN) << threads << " workers";
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(commits[i], i) << threads << " workers";
      ASSERT_EQ(bodies[i].load(), 1) << threads << " workers";
    }
  }
}

TEST(ThreadPoolOrdered, ClaimsStayInsideTheWindow) {
  // claimed - committed, sampled as each body starts, never exceeds the
  // window: body(i) runs only after commit(i - window) has returned. A
  // commit that sleeps now and then lets the workers run into the bound.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t window : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
      ThreadPool pool(threads);
      std::atomic<std::size_t> committed{0};
      std::atomic<std::size_t> max_ahead{0};
      pool.parallel_for_ordered(
          400, window,
          [&](std::size_t i) {
            const std::size_t ahead = i + 1 - committed.load(std::memory_order_acquire);
            std::size_t seen = max_ahead.load();
            while (ahead > seen && !max_ahead.compare_exchange_weak(seen, ahead)) {
            }
          },
          [&](std::size_t i) {
            if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
            committed.fetch_add(1, std::memory_order_release);
          });
      EXPECT_EQ(committed.load(), 400u);
      EXPECT_LE(max_ahead.load(), window) << threads << " workers, window " << window;
      EXPECT_GE(max_ahead.load(), 1u);
    }
  }
}

TEST(ThreadPoolOrdered, BodyExceptionRethrownAfterQuiescence) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> active{0};
    std::atomic<std::size_t> bodies{0};
    std::vector<std::size_t> commits;
    bool caught = false;
    try {
      pool.parallel_for_ordered(
          5000, 8,
          [&](std::size_t i) {
            active.fetch_add(1);
            bodies.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            active.fetch_sub(1);
            if (i == 100) throw std::runtime_error("body failure");
          },
          [&](std::size_t i) { commits.push_back(i); });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "body failure");
    }
    ASSERT_TRUE(caught) << "round " << round;
    EXPECT_EQ(active.load(), 0) << "rethrown before in-flight bodies finished";
    // Claims stopped: nothing past the window of the failing index ran.
    EXPECT_LE(bodies.load(), 100u + 8u) << "round " << round;
    // Commits are a gap-free prefix that stops short of the failing index.
    EXPECT_LT(commits.size(), 101u) << "round " << round;
    for (std::size_t i = 0; i < commits.size(); ++i) ASSERT_EQ(commits[i], i);
    std::atomic<int> count{0};
    pool.parallel_for_ordered(
        64, 4, [&](std::size_t) { count.fetch_add(1); }, [](std::size_t) {});
    EXPECT_EQ(count.load(), 64) << "round " << round;
  }
}

TEST(ThreadPoolOrdered, CommitExceptionStopsLaterCommits) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> active{0};
    std::atomic<std::size_t> bodies{0};
    std::vector<std::size_t> commits;
    bool caught = false;
    try {
      pool.parallel_for_ordered(
          5000, 8,
          [&](std::size_t) {
            active.fetch_add(1);
            bodies.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            active.fetch_sub(1);
          },
          [&](std::size_t i) {
            commits.push_back(i);
            if (i == 50) throw std::runtime_error("commit failure");
          });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "commit failure");
    }
    ASSERT_TRUE(caught) << "round " << round;
    EXPECT_EQ(active.load(), 0) << "rethrown before in-flight bodies finished";
    EXPECT_LE(bodies.load(), 50u + 8u) << "round " << round;
    ASSERT_EQ(commits.size(), 51u) << "an index past the failing commit was committed";
    for (std::size_t i = 0; i < commits.size(); ++i) ASSERT_EQ(commits[i], i);
    std::vector<std::size_t> again;
    pool.parallel_for_ordered(
        64, 4, [](std::size_t) {}, [&](std::size_t i) { again.push_back(i); });
    EXPECT_EQ(again.size(), 64u) << "round " << round;
  }
}

TEST(ThreadPoolOrdered, SerialFallbackInterleavesBodyAndCommit) {
  // A single-worker pool and a nested call both run body(i) then
  // commit(i) for each i in turn, on the calling thread.
  const auto trace_of = [](ThreadPool& pool, std::size_t n) {
    const auto caller = std::this_thread::get_id();
    std::vector<long> trace;  // +i+1 for body(i), -(i+1) for commit(i)
    pool.parallel_for_ordered(
        n, 2,
        [&](std::size_t i) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          trace.push_back(static_cast<long>(i) + 1);
        },
        [&](std::size_t i) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          trace.push_back(-static_cast<long>(i) - 1);
        });
    return trace;
  };
  std::vector<long> expect;
  for (long i = 1; i <= 6; ++i) {
    expect.push_back(i);
    expect.push_back(-i);
  }
  ThreadPool single(1);
  EXPECT_EQ(trace_of(single, 6), expect);

  ThreadPool pool(4);
  std::atomic<int> nested_ok{0};
  pool.parallel_for_chunked(8, 1, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    if (trace_of(pool, 6) == expect) nested_ok.fetch_add(1);
  });
  EXPECT_EQ(nested_ok.load(), 8);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPoolOrdered, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for_ordered(
      0, 4, [&](std::size_t) { touched = true; }, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<double> xs(10000);
  std::iota(xs.begin(), xs.end(), 0.0);
  std::vector<double> squares(xs.size());
  parallel_for_chunked(xs.size(), 1, [&](std::size_t i) { squares[i] = xs[i] * xs[i]; });
  double parallel_total = 0.0;
  for (double v : squares) parallel_total += v;
  double serial_total = 0.0;
  for (double v : xs) serial_total += v * v;
  EXPECT_DOUBLE_EQ(parallel_total, serial_total);
}

}  // namespace
}  // namespace greenhpc::util

#include "carbon/trace_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

namespace greenhpc::carbon {
namespace {

std::uint64_t trace_digest(const util::TimeSeries& ts) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(ts.start().seconds());
  mix(ts.step().seconds());
  for (const double v : ts.values()) mix(v);
  return h;
}

TEST(TraceCache, HitIsPointerIdentical) {
  TraceCache cache;
  const auto a = cache.get(Region::Germany, IntensityKind::Average, 7, seconds(0.0),
                           days(2.0), minutes(30.0));
  const auto b = cache.get(Region::Germany, IntensityKind::Average, 7, seconds(0.0),
                           days(2.0), minutes(30.0));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TraceCache, DistinctKeysGetDistinctTraces) {
  TraceCache cache;
  const auto base = cache.get(Region::Germany, IntensityKind::Average, 7, seconds(0.0),
                              days(2.0), minutes(30.0));
  // Each key component must participate in the identity.
  EXPECT_NE(base.get(), cache.get(Region::France, IntensityKind::Average, 7,
                                  seconds(0.0), days(2.0), minutes(30.0)).get());
  EXPECT_NE(base.get(), cache.get(Region::Germany, IntensityKind::Marginal, 7,
                                  seconds(0.0), days(2.0), minutes(30.0)).get());
  EXPECT_NE(base.get(), cache.get(Region::Germany, IntensityKind::Average, 8,
                                  seconds(0.0), days(2.0), minutes(30.0)).get());
  EXPECT_NE(base.get(), cache.get(Region::Germany, IntensityKind::Average, 7,
                                  seconds(0.0), days(3.0), minutes(30.0)).get());
  EXPECT_NE(base.get(), cache.get(Region::Germany, IntensityKind::Average, 7,
                                  seconds(0.0), days(2.0), minutes(15.0)).get());
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.misses(), 6u);
}

TEST(TraceCache, CachedTraceMatchesFreshGenerateBitForBit) {
  // The cache must be transparent: a cached trace is value-identical to
  // generating with the same parameters directly.
  TraceCache cache;
  const auto cached = cache.get(Region::Poland, IntensityKind::Marginal, 99,
                                seconds(0.0), days(1.5), minutes(15.0));
  GridModel model(Region::Poland, 99);
  const util::TimeSeries fresh =
      model.generate(seconds(0.0), days(1.5), minutes(15.0), IntensityKind::Marginal);
  ASSERT_EQ(cached->size(), fresh.size());
  EXPECT_EQ(trace_digest(*cached), trace_digest(fresh));
}

TEST(TraceCache, SharedShapeKeepsEveryTraceBitIdentical) {
  // Traces of one region share a cached shape across seeds and kinds;
  // each must still equal a fresh GridModel::generate, at a start off the
  // epoch and over a span that is not a whole number of steps.
  TraceCache cache;
  const Duration start = hours(5.5);
  const Duration span = days(1.0) + minutes(37.0);
  const Duration step = minutes(15.0);
  std::size_t traces = 0;
  for (const Region region : all_regions()) {
    for (const IntensityKind kind : {IntensityKind::Average, IntensityKind::Marginal}) {
      for (const std::uint64_t seed : {1ull, 42ull, 2023ull}) {
        const auto cached = cache.get(region, kind, seed, start, span, step);
        ++traces;
        const util::TimeSeries fresh =
            GridModel(region, seed).generate(start, span, step, kind);
        ASSERT_EQ(cached->size(), fresh.size());
        EXPECT_EQ(cached->start().seconds(), fresh.start().seconds());
        EXPECT_EQ(trace_digest(*cached), trace_digest(fresh))
            << name(region) << " seed " << seed;
      }
    }
  }
  // Shapes are not traces: the counters see only the traces asked for.
  EXPECT_EQ(cache.size(), traces);
  EXPECT_EQ(cache.misses(), traces);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, ClearDropsEntriesButKeepsOutstandingPointers) {
  TraceCache cache;
  const auto held = cache.get(Region::Sweden, IntensityKind::Average, 1, seconds(0.0),
                              days(1.0), minutes(60.0));
  const std::uint64_t digest = trace_digest(*held);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // The shared pointer keeps the trace alive and untouched.
  EXPECT_EQ(trace_digest(*held), digest);
  // Re-requesting regenerates an equal trace (new allocation).
  const auto again = cache.get(Region::Sweden, IntensityKind::Average, 1, seconds(0.0),
                               days(1.0), minutes(60.0));
  EXPECT_NE(again.get(), held.get());
  EXPECT_EQ(trace_digest(*again), digest);
}

TEST(TraceCache, ConcurrentLookupsConvergeOnOnePointer) {
  // Hammer one cold key plus a few distinct keys from many threads: every
  // thread asking for the same key must end up with the same pointer, and
  // the cache must hold exactly one entry per distinct key.
  TraceCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 4;
  std::vector<std::vector<const util::TimeSeries*>> seen(
      kThreads, std::vector<const util::TimeSeries*>(kKeys, nullptr));
  std::atomic<int> start_gate{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start_gate.fetch_add(1);
      while (start_gate.load() < kThreads) {
      }
      for (int k = 0; k < kKeys; ++k) {
        const auto trace =
            cache.get(Region::Germany, IntensityKind::Average,
                      static_cast<std::uint64_t>(k), seconds(0.0), days(1.0),
                      minutes(60.0));
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)] = trace.get();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)],
                seen[0][static_cast<std::size_t>(k)])
          << "thread " << t << " key " << k;
    }
  }
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) * kKeys);
}

TEST(TraceCache, GlobalIsASingleton) {
  EXPECT_EQ(&TraceCache::global(), &TraceCache::global());
}

}  // namespace
}  // namespace greenhpc::carbon

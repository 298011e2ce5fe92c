#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace greenhpc::obs {
namespace {

TEST(MetricsCounter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsCounter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsCounter, MoreThreadsThanShardsStayExactThroughResetAndSnapshot) {
  Registry reg;
  Counter& c = reg.counter("shard.c");
  constexpr int kThreads = 24;  // three threads per shard
  static_assert(kThreads > static_cast<int>(Counter::kShards));
  constexpr int kPerThread = 5000;
  const auto hammer = [&c] {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c, t] {
        for (int i = 0; i < kPerThread; ++i) c.add(static_cast<std::uint64_t>(t + 1));
      });
    }
    for (auto& th : threads) th.join();
  };
  // sum over t of (t + 1) * kPerThread
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * (kThreads + 1) / 2 * kPerThread;
  hammer();
  EXPECT_EQ(c.value(), expected);
  const StatSnapshot before_reset = reg.snapshot();
  const std::uint64_t* snapped = before_reset.find_counter("shard.c");
  ASSERT_NE(snapped, nullptr);
  EXPECT_EQ(*snapped, expected);
  // reset() zeroes every shard, not only the caller's.
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  const StatSnapshot after_reset = reg.snapshot();
  EXPECT_EQ(*after_reset.find_counter("shard.c"), 0u);
  hammer();
  c.add(7);
  EXPECT_EQ(c.value(), expected + 7);
  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("counter,shard.c," + std::to_string(expected + 7) + "\n"),
            std::string::npos);
}

TEST(MetricsGauge, SetAddValue) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsGauge, ConcurrentAddsSumExactly) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);  // exact in double
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsHistogram, BucketsAndOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // <= 1
  h.record(1.0);    // <= 1 (inclusive upper bound)
  h.record(5.0);    // <= 10
  h.record(1000.0); // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricsHistogram, PercentileIsZeroWhenEmpty) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(MetricsHistogram, PercentileInterpolatesWithinABucket) {
  // 100 samples, all in the (1, 2] bucket: the quantile moves linearly
  // across that bucket's span regardless of where the samples really sat.
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.record(1.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);   // rank 0 -> lower edge
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.5);   // halfway across the bucket
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 2.0);   // full rank -> upper bound
}

TEST(MetricsHistogram, PercentileSpansBucketsByCount) {
  // 3 samples <= 1 and 1 sample in (1, 2]: p50 (rank 2 of 4) lands
  // inside the first bucket, p99 inside the second.
  Histogram h({1.0, 2.0});
  h.record(0.5);
  h.record(0.5);
  h.record(0.5);
  h.record(1.5);
  const double p50 = h.percentile(0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  const double p99 = h.percentile(0.99);
  EXPECT_GT(p99, 1.0);
  EXPECT_LE(p99, 2.0);
}

TEST(MetricsHistogram, PercentileClampsQAndSaturatesOverflow) {
  Histogram h({1.0, 8.0});
  h.record(100.0);  // overflow bucket only
  // Every quantile of an all-overflow histogram saturates to the last
  // finite bound; out-of-range q is clamped, never UB.
  EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 8.0);
}

TEST(MetricsHistogram, SnapshotPercentileMatchesLiveHistogram) {
  Registry reg;
  Histogram& h = reg.histogram("h.pct", {0.001, 0.01, 0.1, 1.0});
  for (int i = 0; i < 32; ++i) h.record(0.004);
  for (int i = 0; i < 4; ++i) h.record(0.5);
  const StatSnapshot snap = reg.snapshot();
  const HistogramSnapshot* hs = snap.find_histogram("h.pct");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->total(), 36u);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hs->percentile(q), h.percentile(q)) << "q=" << q;
  }
}

TEST(MetricsRegistry, SnapshotFindersLocateEveryKind) {
  Registry reg;
  reg.counter("snap.c").add(5);
  reg.gauge("snap.g").set(-2.5);
  reg.histogram("snap.h", {1.0}).record(0.25);
  const StatSnapshot snap = reg.snapshot();
  const std::uint64_t* c = snap.find_counter("snap.c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, 5u);
  const double* g = snap.find_gauge("snap.g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(*g, -2.5);
  ASSERT_NE(snap.find_histogram("snap.h"), nullptr);
  EXPECT_EQ(snap.find_counter("snap.missing"), nullptr);
  EXPECT_EQ(snap.find_gauge("snap.missing"), nullptr);
  EXPECT_EQ(snap.find_histogram("snap.missing"), nullptr);
}

TEST(MetricsRegistry, LookupReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("obs.test.stable");
  a.add(3);
  Counter& b = reg.counter("obs.test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  // reset() zeroes values but keeps the objects (and references) alive.
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add();
  EXPECT_EQ(reg.counter("obs.test.stable").value(), 1u);
}

TEST(MetricsRegistry, JsonSnapshotContainsAllKinds) {
  Registry reg;
  reg.counter("c.one").add(7);
  reg.gauge("g.one").set(1.25);
  reg.histogram("h.one", {2.0}).record(1.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"c.one\":7"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"h.one\":{\"bounds\":[2]"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsRegistry, CsvSnapshotHasHeaderAndRows) {
  Registry reg;
  reg.counter("c.two").add(9);
  reg.histogram("h.two", {1.0}).record(0.5);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("kind,name,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,c.two,9"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.two[le=1],1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.two[le=inf],0"), std::string::npos);
}

TEST(MetricsRegistry, SizeCountsEveryKind) {
  Registry reg;
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("a");
  reg.gauge("b");
  reg.histogram("c", {1.0});
  reg.counter("a");  // idempotent
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

}  // namespace
}  // namespace greenhpc::obs

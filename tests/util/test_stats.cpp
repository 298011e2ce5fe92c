#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace greenhpc::util {
namespace {

TEST(RunningStats, EmptyIsZeroed) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SampleVarianceUsesBesselCorrection) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 1.0);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-12);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0 / 3.0), 20.0);
}

TEST(Percentile, UnsortedInputAndSingleton) {
  std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.9), 7.0);
}

TEST(Percentile, SelectionMatchesSortedReferenceBitForBit) {
  // The sort-based definition percentile() replaced with selection.
  const auto sorted_reference = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1) return xs.front();
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= xs.size()) return xs.back();
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
  };
  Rng rng(20231112);
  const std::vector<double> fixed_qs = {0.0, 1.0, 0.4, 0.5, 0.25, 1.0 / 3.0, 0.999};
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes 1 and 2 first, then up to a 3-day window of 15-minute samples.
    const auto n = trial < 2 ? static_cast<std::size_t>(trial + 1)
                             : static_cast<std::size_t>(rng.uniform_int(1, 300));
    // Half the trials draw from a few distinct values, so ranks lo and
    // lo + 1 often straddle a run of duplicates.
    const bool coarse = trial % 2 == 0;
    std::vector<double> xs(n);
    for (double& x : xs) {
      x = coarse ? 50.0 * static_cast<double>(rng.uniform_int(0, 5))
                 : rng.uniform(-100.0, 900.0);
    }
    std::vector<double> qs = fixed_qs;
    qs.push_back(rng.uniform());
    for (const double q : qs) {
      const double want = sorted_reference(xs, q);
      const double got = percentile(xs, q);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "n=" << n << " q=" << q << ": " << got << " vs " << want;
    }
  }
}

TEST(Percentile, Preconditions) {
  std::vector<double> xs;
  EXPECT_THROW((void)percentile(xs, 0.5), greenhpc::InvalidArgument);
  std::vector<double> ok = {1.0};
  EXPECT_THROW((void)percentile(ok, 1.5), greenhpc::InvalidArgument);
}

TEST(Summarize, FullSummary) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p25, 25.75, 1e-9);
  EXPECT_NEAR(s.p75, 75.25, 1e-9);
  EXPECT_GT(s.p95, 90.0);
}

TEST(Summarize, EmptyYieldsZeroes) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Mape, BasicAndZeroSkip) {
  std::vector<double> actual = {100.0, 200.0, 0.0};
  std::vector<double> forecast = {110.0, 180.0, 50.0};
  // Zero actual is skipped: mean of 10% and 10%.
  EXPECT_NEAR(mape(actual, forecast), 0.10, 1e-12);
}

TEST(Mape, PerfectForecastIsZero) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mape(a, a), 0.0);
}

TEST(Rmse, KnownValue) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> f = {2.0, 2.0, 5.0};
  EXPECT_NEAR(rmse(a, f), std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
}

TEST(Rmse, LengthMismatchThrows) {
  std::vector<double> a = {1.0};
  std::vector<double> f = {1.0, 2.0};
  EXPECT_THROW((void)rmse(a, f), greenhpc::InvalidArgument);
}

/// Brute-force twin of a SlidingPercentile: the last `capacity` values.
std::vector<double> last_n(const std::vector<double>& all, std::size_t capacity) {
  const std::size_t n = std::min(all.size(), capacity);
  return {all.end() - static_cast<std::ptrdiff_t>(n), all.end()};
}

TEST(SlidingPercentile, RankQueriesMatchBruteForceWhileFillingAndFull) {
  Rng rng(7);
  const std::size_t capacity = 50;
  SlidingPercentile window(capacity);
  std::vector<double> all;
  for (int i = 0; i < 200; ++i) {
    // Few distinct values, so ties are common.
    const double x = static_cast<double>(rng.uniform_int(0, 12));
    window.push(x);
    all.push_back(x);
    const std::vector<double> w = last_n(all, capacity);
    ASSERT_EQ(window.size(), w.size());
    for (double probe = -0.5; probe <= 12.5; probe += 0.5) {
      const auto below = static_cast<std::size_t>(
          std::count_if(w.begin(), w.end(), [&](double v) { return v < probe; }));
      const auto at_most = static_cast<std::size_t>(
          std::count_if(w.begin(), w.end(), [&](double v) { return v <= probe; }));
      EXPECT_EQ(window.count_below(probe), below) << "push " << i << " probe " << probe;
      EXPECT_EQ(window.count_at_most(probe), at_most) << "push " << i << " probe " << probe;
    }
    for (const double q : {0.0, 0.25, 0.4, 0.5, 0.99, 1.0}) {
      const std::size_t lo = window.percentile_rank(q);
      EXPECT_EQ(lo, static_cast<std::size_t>(q * static_cast<double>(w.size() - 1)));
      EXPECT_EQ(window.percentile(q), percentile(w, q));
    }
  }
}

TEST(SlidingPercentile, RunPushEqualsRepeatedSinglePushes) {
  Rng rng(11);
  const std::size_t capacity = 40;
  SlidingPercentile runs(capacity);
  SlidingPercentile singles(capacity);
  for (int step = 0; step < 120; ++step) {
    const double x = static_cast<double>(rng.uniform_int(0, 6));
    // Run lengths up to past the capacity, so a run can wrap the ring.
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 45));
    runs.push(x, count);
    for (std::size_t k = 0; k < count; ++k) singles.push(x);
    ASSERT_EQ(runs.size(), singles.size());
    for (double probe = -0.5; probe <= 6.5; probe += 0.5) {
      ASSERT_EQ(runs.count_below(probe), singles.count_below(probe)) << "step " << step;
    }
    for (const double q : {0.0, 0.4, 0.9, 1.0}) {
      ASSERT_EQ(runs.percentile(q), singles.percentile(q)) << "step " << step;
    }
  }
}

/// Pushes runs into a SlidingPercentile and a brute-force twin (the last
/// `capacity` values) and checks every query against the twin, bit for
/// bit for percentile().
class RunTwin {
 public:
  explicit RunTwin(std::size_t capacity) : window_(capacity), capacity_(capacity) {}

  void push(double x, std::size_t count) {
    window_.push(x, count);
    all_.insert(all_.end(), count, x);
  }

  void check(const std::vector<double>& probes, const std::vector<double>& qs) const {
    const std::vector<double> w = last_n(all_, capacity_);
    ASSERT_EQ(window_.size(), w.size());
    for (const double probe : probes) {
      const auto below = static_cast<std::size_t>(
          std::count_if(w.begin(), w.end(), [&](double v) { return v < probe; }));
      const auto at_most = static_cast<std::size_t>(
          std::count_if(w.begin(), w.end(), [&](double v) { return v <= probe; }));
      ASSERT_EQ(window_.count_below(probe), below) << "probe " << probe;
      ASSERT_EQ(window_.count_at_most(probe), at_most) << "probe " << probe;
    }
    if (w.empty()) return;
    for (const double q : qs) {
      ASSERT_EQ(window_.percentile_rank(q),
                static_cast<std::size_t>(q * static_cast<double>(w.size() - 1)));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(window_.percentile(q)),
                std::bit_cast<std::uint64_t>(percentile(w, q)))
          << "q " << q;
    }
  }

 private:
  SlidingPercentile window_;
  std::size_t capacity_;
  std::vector<double> all_;
};

const std::vector<double> kSmallProbes = {-1.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 9.0};
const std::vector<double> kQs = {0.0, 0.1, 0.4, 0.5, 0.77, 1.0};

TEST(SlidingPercentile, ZeroCountChangesNothingAndCapacityCountReplacesAll) {
  RunTwin twin(10);
  twin.push(3.0, 0);  // on an empty window
  twin.check(kSmallProbes, kQs);
  twin.push(2.0, 4);
  twin.push(5.0, 0);
  twin.check(kSmallProbes, kQs);
  twin.push(4.0, 10);  // exactly the capacity, from a partly filled window
  twin.check(kSmallProbes, kQs);
  twin.push(1.0, 3);
  twin.push(7.0, 25);  // beyond the capacity, from a full window
  twin.check(kSmallProbes, kQs);
  twin.push(7.0, 10);  // the value the window already holds throughout
  twin.check(kSmallProbes, kQs);
  twin.push(2.0, 9);
  twin.check(kSmallProbes, kQs);
}

TEST(SlidingPercentile, OnePushEvictsSeveralRuns) {
  RunTwin twin(20);
  twin.push(1.0, 3);
  twin.push(5.0, 4);
  twin.push(2.0, 5);
  twin.push(7.0, 6);  // 18 of 20
  twin.check(kSmallProbes, kQs);
  twin.push(3.0, 14);  // fills 2, evicts the first three runs exactly
  twin.check(kSmallProbes, kQs);
  twin.push(9.0, 8);  // evicts the 7s and two of the 3s
  twin.check(kSmallProbes, kQs);
  twin.push(0.5, 19);  // evicts all but the newest value
  twin.check(kSmallProbes, kQs);
}

TEST(SlidingPercentile, EqualValuesInNonAdjacentRunsShareOneEntry) {
  RunTwin twin(10);
  twin.push(4.0, 3);
  twin.push(1.0, 2);
  twin.push(4.0, 3);
  twin.push(1.0, 1);
  twin.push(4.0, 1);  // 10: the 4s sit in three runs
  twin.check(kSmallProbes, kQs);
  for (const auto& [x, count] : std::vector<std::pair<double, std::size_t>>{
           {2.0, 2}, {4.0, 2}, {1.0, 3}, {4.0, 1}, {2.0, 4}, {4.0, 5}, {1.0, 2}}) {
    twin.push(x, count);
    twin.check(kSmallProbes, kQs);
  }
}

TEST(SlidingPercentile, HourlyRunsAtTraceCapacityMatchPercentileBitForBit) {
  // The shape the green threshold sees: three days of one-minute ticks,
  // appended as runs of a segment's value (mostly 15 or 60 ticks, split
  // where a span ended early), values from a few hundred levels.
  Rng rng(2023);
  RunTwin twin(4320);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t len =
        rng.uniform_int(0, 3) == 0 ? static_cast<std::size_t>(rng.uniform_int(1, 14))
                                   : (rng.uniform_int(0, 1) == 0 ? 15u : 60u);
    const double x = 100.0 + 0.37 * static_cast<double>(rng.uniform_int(0, 400));
    twin.push(x, len);
    if (i % 10 == 0) {
      twin.check({100.0, x, x * (1.0 + 1e-12), x * (1.0 - 1e-12), 175.0}, {0.4, 0.9});
    } else {
      twin.check({}, {0.4});
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Histogram, CountsAndClamping) {
  std::vector<double> xs = {-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);  // -1 clamped in, 0.1
  EXPECT_EQ(h[1], 3u);  // 0.5, 0.9, 2.0 clamped in
}

TEST(Histogram, Preconditions) {
  std::vector<double> xs = {1.0};
  EXPECT_THROW((void)histogram(xs, 0.0, 1.0, 0), greenhpc::InvalidArgument);
  EXPECT_THROW((void)histogram(xs, 1.0, 1.0, 2), greenhpc::InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::util

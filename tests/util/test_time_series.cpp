#include "util/time_series.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace greenhpc::util {
namespace {

TimeSeries ramp(std::size_t n, Duration step = minutes(1.0)) {
  TimeSeries ts(seconds(0.0), step);
  for (std::size_t i = 0; i < n; ++i) ts.push_back(static_cast<double>(i));
  return ts;
}

TEST(TimeSeries, BasicAccessors) {
  TimeSeries ts(hours(1.0), minutes(15.0), {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_FALSE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.start().hours(), 1.0);
  EXPECT_DOUBLE_EQ(ts.end().hours(), 2.0);
  EXPECT_DOUBLE_EQ(ts.at(2), 3.0);
  EXPECT_THROW((void)ts.at(4), greenhpc::InvalidArgument);
}

TEST(TimeSeries, InvalidStepThrows) {
  EXPECT_THROW(TimeSeries(seconds(0.0), seconds(0.0)), greenhpc::InvalidArgument);
  EXPECT_THROW(TimeSeries(seconds(0.0), seconds(-1.0)), greenhpc::InvalidArgument);
}

TEST(TimeSeries, SampleAtZeroOrderHold) {
  TimeSeries ts(seconds(0.0), minutes(10.0), {5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(ts.sample_at(seconds(0.0)), 5.0);
  EXPECT_DOUBLE_EQ(ts.sample_at(minutes(9.99)), 5.0);
  EXPECT_DOUBLE_EQ(ts.sample_at(minutes(10.0)), 7.0);
  EXPECT_DOUBLE_EQ(ts.sample_at(minutes(29.9)), 9.0);
  EXPECT_THROW((void)ts.sample_at(minutes(30.0)), greenhpc::InvalidArgument);
  EXPECT_THROW((void)ts.sample_at(seconds(-1.0)), greenhpc::InvalidArgument);
}

TEST(TimeSeries, SampleAtClampedExtends) {
  TimeSeries ts(hours(1.0), minutes(10.0), {5.0, 7.0});
  EXPECT_DOUBLE_EQ(ts.sample_at_clamped(seconds(0.0)), 5.0);
  EXPECT_DOUBLE_EQ(ts.sample_at_clamped(hours(10.0)), 7.0);
  EXPECT_DOUBLE_EQ(ts.sample_at_clamped(hours(1.05)), 5.0);
}

TEST(TimeSeries, IntegrateWholeSeries) {
  // 3 samples of 1 minute each: (1 + 2 + 3) * 60.
  TimeSeries ts(seconds(0.0), minutes(1.0), {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ts.integrate(seconds(0.0), minutes(3.0)), 360.0);
}

TEST(TimeSeries, IntegratePartialWindows) {
  TimeSeries ts(seconds(0.0), minutes(1.0), {1.0, 2.0, 3.0});
  // Half of the first sample.
  EXPECT_DOUBLE_EQ(ts.integrate(seconds(0.0), seconds(30.0)), 30.0);
  // From mid-first to mid-second: 30*1 + 30*2.
  EXPECT_DOUBLE_EQ(ts.integrate(seconds(30.0), seconds(90.0)), 90.0);
  // Zero-length window.
  EXPECT_DOUBLE_EQ(ts.integrate(seconds(42.0), seconds(42.0)), 0.0);
}

TEST(TimeSeries, IntegratePowerToEnergy) {
  // Constant 1 kW over 2 hours = 7.2e6 J.
  TimeSeries power(seconds(0.0), minutes(30.0), {1000.0, 1000.0, 1000.0, 1000.0});
  EXPECT_DOUBLE_EQ(power.integrate(seconds(0.0), hours(2.0)), 7.2e6);
}

TEST(TimeSeries, MeanOver) {
  TimeSeries ts(seconds(0.0), minutes(1.0), {2.0, 4.0});
  EXPECT_DOUBLE_EQ(ts.mean_over(seconds(0.0), minutes(2.0)), 3.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(seconds(0.0), minutes(1.0)), 2.0);
  EXPECT_THROW((void)ts.mean_over(minutes(1.0), minutes(1.0)), greenhpc::InvalidArgument);
}

TEST(TimeSeries, DownsampleMean) {
  const TimeSeries ts = ramp(6);
  const TimeSeries down = ts.downsample_mean(2);
  ASSERT_EQ(down.size(), 3u);
  EXPECT_DOUBLE_EQ(down.at(0), 0.5);
  EXPECT_DOUBLE_EQ(down.at(1), 2.5);
  EXPECT_DOUBLE_EQ(down.at(2), 4.5);
  EXPECT_DOUBLE_EQ(down.step().minutes(), 2.0);
}

TEST(TimeSeries, DownsampleTrailingPartialWindow) {
  const TimeSeries ts = ramp(5);
  const TimeSeries down = ts.downsample_mean(2);
  ASSERT_EQ(down.size(), 3u);
  EXPECT_DOUBLE_EQ(down.at(2), 4.0);  // single trailing sample
}

TEST(TimeSeries, DailyMean) {
  TimeSeries ts(seconds(0.0), hours(6.0), {});
  for (int day = 0; day < 3; ++day) {
    for (int q = 0; q < 4; ++q) ts.push_back(static_cast<double>(day * 10));
  }
  const TimeSeries daily = ts.daily_mean();
  ASSERT_EQ(daily.size(), 3u);
  EXPECT_DOUBLE_EQ(daily.at(0), 0.0);
  EXPECT_DOUBLE_EQ(daily.at(1), 10.0);
  EXPECT_DOUBLE_EQ(daily.at(2), 20.0);
}

TEST(TimeSeries, DailyMeanRequiresDividingStep) {
  TimeSeries ts(seconds(0.0), hours(7.0), {1.0, 2.0, 3.0, 4.0});
  EXPECT_THROW((void)ts.daily_mean(), greenhpc::InvalidArgument);
}

TEST(TimeSeries, SlicePreservesTimeAlignment) {
  const TimeSeries ts = ramp(10);
  const TimeSeries mid = ts.slice(3, 4);
  ASSERT_EQ(mid.size(), 4u);
  EXPECT_DOUBLE_EQ(mid.start().minutes(), 3.0);
  EXPECT_DOUBLE_EQ(mid.at(0), 3.0);
  EXPECT_THROW((void)ts.slice(8, 5), greenhpc::InvalidArgument);
}

TEST(TimeSeries, SummaryOfSamples) {
  const TimeSeries ts = ramp(101);
  const Summary s = ts.summary();
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.mean, 50.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(TimeSeries, AutocorrelationBasics) {
  // Perfectly periodic signal: correlation 1 at the period, negative at
  // the half period.
  TimeSeries ts(seconds(0.0), minutes(1.0));
  for (int i = 0; i < 400; ++i) {
    ts.push_back(std::sin(2.0 * 3.14159265358979 * i / 40.0));
  }
  EXPECT_DOUBLE_EQ(ts.autocorrelation(0), 1.0);
  EXPECT_GT(ts.autocorrelation(40), 0.95);
  EXPECT_LT(ts.autocorrelation(20), -0.9);
}

TEST(TimeSeries, AutocorrelationDegenerateCases) {
  TimeSeries constant(seconds(0.0), minutes(1.0), {5.0, 5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(constant.autocorrelation(1), 0.0);
  TimeSeries tiny(seconds(0.0), minutes(1.0), {1.0, 2.0});
  EXPECT_DOUBLE_EQ(tiny.autocorrelation(5), 0.0);
}

TEST(TimeSeries, IntegralAdditivity) {
  // Property: integral over [a,c] == [a,b] + [b,c] for arbitrary cuts.
  const TimeSeries ts = ramp(100, seconds(37.0));
  const Duration a = seconds(100.0), b = seconds(1234.5), c = seconds(3000.0);
  const double whole = ts.integrate(a, c);
  const double split = ts.integrate(a, b) + ts.integrate(b, c);
  EXPECT_NEAR(whole, split, 1e-9 * std::max(1.0, std::fabs(whole)));
}

}  // namespace
}  // namespace greenhpc::util

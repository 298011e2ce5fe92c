#include "carbon/green_periods.hpp"

#include <gtest/gtest.h>

#include "carbon/grid_model.hpp"
#include "util/error.hpp"

namespace greenhpc::carbon {
namespace {

util::TimeSeries square(double lo, double hi, int cycles, Duration half,
                        Duration step = minutes(15.0)) {
  util::TimeSeries ts(seconds(0.0), step);
  const auto per_half = static_cast<std::size_t>(half.seconds() / step.seconds());
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < per_half; ++i) ts.push_back(lo);
    for (std::size_t i = 0; i < per_half; ++i) ts.push_back(hi);
  }
  return ts;
}

TEST(GreenPeriods, ThresholdIsQuantile) {
  const auto ts = square(100.0, 300.0, 4, hours(6.0));
  EXPECT_DOUBLE_EQ(green_threshold(ts, 0.5), 200.0);
  EXPECT_DOUBLE_EQ(green_threshold(ts, 0.25), 100.0);
}

TEST(GreenPeriods, FindsSquareWaveWindows) {
  const auto ts = square(100.0, 300.0, 3, hours(6.0));
  const auto windows = find_green_windows(ts, 150.0);
  ASSERT_EQ(windows.size(), 3u);
  for (const auto& w : windows) {
    EXPECT_DOUBLE_EQ(w.length().hours(), 6.0);
    EXPECT_DOUBLE_EQ(w.mean_intensity, 100.0);
  }
  EXPECT_DOUBLE_EQ(windows[0].start.hours(), 0.0);
  EXPECT_DOUBLE_EQ(windows[1].start.hours(), 12.0);
}

TEST(GreenPeriods, MinLengthFiltersShortWindows) {
  const auto ts = square(100.0, 300.0, 3, hours(2.0));
  EXPECT_EQ(find_green_windows(ts, 150.0, hours(3.0)).size(), 0u);
  EXPECT_EQ(find_green_windows(ts, 150.0, hours(2.0)).size(), 3u);
}

TEST(GreenPeriods, WindowOpenAtSeriesEndIsClosed) {
  util::TimeSeries ts(seconds(0.0), hours(1.0), {300.0, 300.0, 100.0, 100.0});
  const auto windows = find_green_windows(ts, 150.0);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].start.hours(), 2.0);
  EXPECT_DOUBLE_EQ(windows[0].end.hours(), 4.0);
}

TEST(GreenPeriods, NoWindowsAboveThreshold) {
  util::TimeSeries ts(seconds(0.0), hours(1.0), {300.0, 280.0});
  EXPECT_TRUE(find_green_windows(ts, 100.0).empty());
}

TEST(GreenPeriods, GreenFraction) {
  const auto ts = square(100.0, 300.0, 5, hours(6.0));
  EXPECT_DOUBLE_EQ(green_fraction(ts, 150.0), 0.5);
  EXPECT_DOUBLE_EQ(green_fraction(ts, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(green_fraction(ts, 400.0), 1.0);
}

TEST(GreenPeriods, RealisticTraceHasGreenWindows) {
  GridModel model(Region::Germany, 11);
  const auto trace = model.generate(seconds(0.0), days(14.0), minutes(30.0));
  const double threshold = green_threshold(trace, 0.3);
  const auto windows = find_green_windows(trace, threshold, hours(1.0));
  EXPECT_GE(windows.size(), 3u);
  EXPECT_NEAR(green_fraction(trace, threshold), 0.3, 0.05);
}

TEST(GreenPeriods, EmptySeriesThrows) {
  util::TimeSeries ts(seconds(0.0), hours(1.0));
  EXPECT_THROW((void)green_threshold(ts, 0.5), greenhpc::InvalidArgument);
  EXPECT_THROW((void)green_fraction(ts, 100.0), greenhpc::InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::carbon

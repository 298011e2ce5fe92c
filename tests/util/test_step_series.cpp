#include "util/step_series.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "testing/random_runs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace greenhpc::util {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Same ticks, same runs, every value compared by bit pattern.
void expect_same_runs(const StepSeries& a, const StepSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.runs().size(), b.runs().size());
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    EXPECT_EQ(bits(a.runs()[i].value), bits(b.runs()[i].value)) << "run " << i;
    EXPECT_EQ(a.runs()[i].count, b.runs()[i].count) << "run " << i;
  }
}

TEST(StepSeries, SignedZerosStaySeparateRuns) {
  StepSeries s(seconds(0.0), minutes(1.0));
  s.push_back(0.0);
  s.push_back(-0.0);
  s.append_fill(2, -0.0);
  s.push_back(0.0);
  ASSERT_EQ(s.runs().size(), 3u);
  EXPECT_EQ(bits(s.runs()[0].value), bits(0.0));
  EXPECT_EQ(bits(s.runs()[1].value), bits(-0.0));
  EXPECT_EQ(s.runs()[1].count, 3u);
  EXPECT_EQ(bits(s.runs()[2].value), bits(0.0));
  EXPECT_EQ(s.size(), 5u);
}

TEST(StepSeries, NanPayloadsMergeOnlyWhenBitEqual) {
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7ff8000000000001});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0x7ff8000000000002});
  StepSeries s(seconds(0.0), minutes(1.0));
  s.push_back(nan_a);
  s.append_fill(3, nan_a);  // NaN != NaN, but the bits are equal: one run
  s.push_back(nan_b);
  ASSERT_EQ(s.runs().size(), 2u);
  EXPECT_EQ(bits(s.runs()[0].value), bits(nan_a));
  EXPECT_EQ(s.runs()[0].count, 4u);
  EXPECT_EQ(bits(s.runs()[1].value), bits(nan_b));
  EXPECT_EQ(s.runs()[1].count, 1u);
}

TEST(StepSeries, EqualValuesMergeAcrossPushBackAndAppendFill) {
  StepSeries s(seconds(0.0), minutes(1.0));
  s.push_back(7.5);
  s.append_fill(3, 7.5);
  s.push_back(7.5);
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0].count, 5u);
  s.append_fill(2, 8.0);
  s.push_back(8.0);
  ASSERT_EQ(s.runs().size(), 2u);
  EXPECT_EQ(s.runs()[1].count, 3u);
  EXPECT_EQ(s.size(), 8u);
}

TEST(StepSeries, AppendFillOfZeroTicksDoesNothing) {
  StepSeries s(seconds(0.0), minutes(1.0));
  s.append_fill(0, 3.0);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.runs().empty());
  s.push_back(1.0);
  s.append_fill(0, 2.0);  // no empty run, and the next 2.0 still opens one
  s.push_back(2.0);
  ASSERT_EQ(s.runs().size(), 2u);
  EXPECT_EQ(s.runs()[1].count, 1u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(StepSeries, InvalidStepThrows) {
  EXPECT_THROW(StepSeries(seconds(0.0), seconds(0.0)), greenhpc::InvalidArgument);
  EXPECT_THROW(StepSeries(seconds(0.0), seconds(-1.0)), greenhpc::InvalidArgument);
}

TEST(StepSeries, EmptySeriesExpandsAndIntegratesToNothing) {
  const StepSeries s(hours(1.0), minutes(15.0));
  EXPECT_EQ(s.end().seconds(), s.start().seconds());
  EXPECT_TRUE(s.expand().empty());
  EXPECT_EQ(bits(s.integrate()), bits(0.0));
}

TEST(StepSeries, GridMatchesTheExpandedSeries) {
  StepSeries s(hours(1.0), minutes(15.0));
  s.append_fill(3, 2.0);
  s.push_back(5.0);
  const TimeSeries flat = s.expand();
  EXPECT_EQ(flat.size(), 4u);
  EXPECT_EQ(bits(flat.start().seconds()), bits(s.start().seconds()));
  EXPECT_EQ(bits(flat.step().seconds()), bits(s.step().seconds()));
  EXPECT_EQ(bits(flat.end().seconds()), bits(s.end().seconds()));
  EXPECT_DOUBLE_EQ(s.end().hours(), 2.0);
  EXPECT_EQ(flat.values()[2], 2.0);
  EXPECT_EQ(flat.values()[3], 5.0);
}

// Seeded property: on random run lists (one-sample and one-run series
// included) expansion round-trips to the same runs, end() agrees with
// the flat series, and the run-wise integral equals TimeSeries::integrate
// over the expanded samples bit for bit.
TEST(StepSeries, RunwiseIntegralAndExpansionMatchFlatSamplesOnRandomRuns) {
  Rng rng(20231117);
  for (std::size_t k = 0; k < 256; ++k) {
    SCOPED_TRACE(k);
    const StepSeries s = greenhpc::testing::random_step_series(rng, k);
    const TimeSeries flat = s.expand();
    ASSERT_EQ(flat.size(), s.size());
    EXPECT_EQ(bits(flat.end().seconds()), bits(s.end().seconds()));

    StepSeries again(flat.start(), flat.step());
    for (double v : flat.values()) again.push_back(v);
    expect_same_runs(s, again);

    EXPECT_EQ(bits(s.integrate()), bits(flat.integrate(flat.start(), flat.end())));
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace greenhpc::util

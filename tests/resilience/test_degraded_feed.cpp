// DegradedFeed: alternating up/down windows and the observe() contract.

#include <gtest/gtest.h>

#include "resilience/degraded_feed.hpp"
#include "util/error.hpp"

namespace greenhpc::resilience {
namespace {

/// Fraction of [0, horizon] that the feed's outage windows cover.
double covered_fraction(const DegradedFeed& feed, Duration horizon) {
  double down = 0.0;
  for (const auto& [start, end] : feed.outages()) down += (end - start).seconds();
  return down / horizon.seconds();
}

TEST(DegradedFeed, ZeroFractionIsAlwaysFresh) {
  DegradedFeed feed({.outage_fraction = 0.0}, days(10.0));
  EXPECT_TRUE(feed.outages().empty());
  for (double h = 0.0; h < 240.0; h += 7.3) {
    const auto obs = feed.observe(hours(h), 123.0);
    ASSERT_TRUE(obs.has_value());
    EXPECT_DOUBLE_EQ(*obs, 123.0);
  }
}

TEST(DegradedFeed, FullFractionIsAlwaysDark) {
  DegradedFeed feed({.outage_fraction = 1.0}, days(10.0));
  EXPECT_DOUBLE_EQ(covered_fraction(feed, days(10.0)), 1.0);
  EXPECT_FALSE(feed.observe(seconds(0.0), 1.0).has_value());
  EXPECT_FALSE(feed.observe(days(9.9), 1.0).has_value());
}

TEST(DegradedFeed, RealizedFractionNearTarget) {
  DegradedFeedConfig cfg;
  cfg.outage_fraction = 0.25;
  cfg.mean_outage = hours(2.0);
  cfg.seed = 7;
  DegradedFeed feed(cfg, days(60.0));  // long horizon: law of large numbers
  EXPECT_NEAR(covered_fraction(feed, days(60.0)), 0.25, 0.10);
}

TEST(DegradedFeed, ObserveMatchesDownAtAndWindows) {
  DegradedFeedConfig cfg;
  cfg.outage_fraction = 0.3;
  cfg.seed = 11;
  DegradedFeed feed(cfg, days(10.0));
  ASSERT_FALSE(feed.outages().empty());
  for (const auto& [start, end] : feed.outages()) {
    ASSERT_LT(start.seconds(), end.seconds());
    const Duration mid = seconds(0.5 * (start.seconds() + end.seconds()));
    EXPECT_TRUE(feed.down_at(mid));
    EXPECT_FALSE(feed.observe(mid, 9.0).has_value());
  }
  // Just before the first outage the feed is up.
  const Duration before = seconds(feed.outages().front().first.seconds() - 1.0);
  EXPECT_FALSE(feed.down_at(before));
  EXPECT_TRUE(feed.observe(before, 9.0).has_value());
}

TEST(DegradedFeed, WindowsAscendingAndDisjoint) {
  DegradedFeedConfig cfg;
  cfg.outage_fraction = 0.4;
  cfg.mean_outage = hours(1.0);
  DegradedFeed feed(cfg, days(20.0));
  const auto& w = feed.outages();
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_LT(w[i - 1].second.seconds(), w[i].first.seconds());
  }
}

TEST(DegradedFeed, DeterministicAcrossInstances) {
  DegradedFeedConfig cfg;
  cfg.outage_fraction = 0.25;
  cfg.seed = 99;
  DegradedFeed a(cfg, days(30.0));
  DegradedFeed b(cfg, days(30.0));
  ASSERT_EQ(a.outages().size(), b.outages().size());
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outages()[i].first.seconds(), b.outages()[i].first.seconds());
    EXPECT_DOUBLE_EQ(a.outages()[i].second.seconds(), b.outages()[i].second.seconds());
  }
}

TEST(DegradedFeed, ValidateRejectsBadConfigs) {
  EXPECT_THROW(DegradedFeed({.outage_fraction = -0.1}, days(1.0)),
               InvalidArgument);
  EXPECT_THROW(DegradedFeed({.outage_fraction = 1.1}, days(1.0)),
               InvalidArgument);
  EXPECT_THROW(
      DegradedFeed({.outage_fraction = 0.5, .mean_outage = seconds(0.0)}, days(1.0)),
      InvalidArgument);
  EXPECT_THROW(DegradedFeed({.outage_fraction = 0.5}, seconds(0.0)),
               InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::resilience

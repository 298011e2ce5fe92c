// FaultModel: seeded Weibull/exponential node-failure schedules with
// age-dependent hazard.

#include <gtest/gtest.h>

#include "lifecycle/fleet.hpp"
#include "resilience/fault_model.hpp"
#include "util/error.hpp"

namespace greenhpc::resilience {
namespace {

FaultModelConfig base_config() {
  FaultModelConfig c;
  c.nodes = 64;
  c.horizon = days(30.0);
  c.node_mtbf = hours(500.0);
  c.mean_repair = hours(2.0);
  c.seed = 42;
  return c;
}

TEST(FaultModel, NonPositiveMtbfMeansPerfectHardware) {
  auto cfg = base_config();
  cfg.node_mtbf = seconds(0.0);
  EXPECT_TRUE(FaultModel(cfg).schedule().empty());
  cfg.node_mtbf = seconds(-10.0);
  EXPECT_TRUE(FaultModel(cfg).schedule().empty());
  EXPECT_FALSE(FaultModel(cfg).injection().enabled());
}

TEST(FaultModel, ScheduleSortedWithinHorizonAndWellFormed) {
  const auto events = FaultModel(base_config()).schedule();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].time.seconds(), 0.0);
    EXPECT_LT(events[i].time, base_config().horizon);
    EXPECT_EQ(events[i].nodes, 1);
    EXPECT_GT(events[i].repair.seconds(), 0.0);
    if (i > 0) {
      EXPECT_LE(events[i - 1].time, events[i].time);
    }
  }
}

TEST(FaultModel, EventCountTracksMtbf) {
  // 64 nodes x 720 h / 500 h MTBF ~ 92 expected failures (repairs eat a
  // little exposure time); statistical, so the band is generous.
  const auto events = FaultModel(base_config()).schedule();
  EXPECT_GT(events.size(), 40u);
  EXPECT_LT(events.size(), 180u);

  auto rare = base_config();
  rare.node_mtbf = hours(5000.0);
  EXPECT_LT(FaultModel(rare).schedule().size(), events.size());
}

TEST(FaultModel, AgeAccelerationRaisesFailureRate) {
  auto young = base_config();
  auto old_sys = base_config();
  old_sys.age_years = 8.0;
  old_sys.age_acceleration = 0.25;  // hazard x3 at 8 years
  EXPECT_DOUBLE_EQ(old_sys.hazard_multiplier(), 3.0);
  EXPECT_DOUBLE_EQ(old_sys.effective_mtbf().seconds(),
                   young.node_mtbf.seconds() / 3.0);
  EXPECT_GT(FaultModel(old_sys).schedule().size(),
            FaultModel(young).schedule().size());
}

TEST(FaultModel, ForSystemTiesAgeToServiceYears) {
  lifecycle::SystemLifetime sys{"SuperMUC-NG", 2018, std::nullopt};
  auto cfg = FaultModel::for_system(sys, 2026, base_config());
  EXPECT_DOUBLE_EQ(cfg.age_years, 8.0);
  auto decommissioned = FaultModel::for_system(
      lifecycle::SystemLifetime{"old", 2000, 2006}, 2026, base_config());
  EXPECT_DOUBLE_EQ(decommissioned.age_years, 6.0);
}

TEST(FaultModel, InjectionCarriesRetryPolicy) {
  const auto inj = FaultModel(base_config()).injection(5, minutes(20.0));
  EXPECT_TRUE(inj.enabled());
  EXPECT_EQ(inj.max_retries, 5);
  EXPECT_DOUBLE_EQ(inj.backoff_base.minutes(), 20.0);
}

TEST(FaultModel, WeibullShapeChangesScheduleButKeepsMean) {
  auto wearout = base_config();
  wearout.weibull_shape = 2.0;
  const auto exp_events = FaultModel(base_config()).schedule();
  const auto wb_events = FaultModel(wearout).schedule();
  ASSERT_FALSE(wb_events.empty());
  // Same mean inter-failure time: counts should agree within a factor.
  const double ratio = static_cast<double>(wb_events.size()) /
                       static_cast<double>(exp_events.size());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(FaultModel, ValidateRejectsBadConfigs) {
  auto cfg = base_config();
  cfg.weibull_shape = 0.0;
  EXPECT_THROW(FaultModel{cfg}, InvalidArgument);
  cfg = base_config();
  cfg.mean_repair = seconds(0.0);
  EXPECT_THROW(FaultModel{cfg}, InvalidArgument);
  cfg = base_config();
  cfg.age_acceleration = -1.0;
  EXPECT_THROW(FaultModel{cfg}, InvalidArgument);
  cfg = base_config();
  cfg.nodes = -1;
  EXPECT_THROW(FaultModel{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::resilience

#include "sched/carbon_aware.hpp"

#include <gtest/gtest.h>

#include "hpcsim/simulator.hpp"
#include "sched/easy_backfill.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace greenhpc::sched {
namespace {

using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using greenhpc::testing::square_trace;
using hpcsim::Simulator;

std::shared_ptr<const carbon::Forecaster> persistence() {
  return std::make_shared<carbon::PersistenceForecaster>();
}

Simulator::Config cfg(util::TimeSeries trace, int nodes = 8) {
  Simulator::Config c;
  c.cluster = small_cluster(nodes);
  c.carbon_intensity = std::move(trace);
  return c;
}

TEST(CarbonAware, RequiresForecaster) {
  EXPECT_THROW(CarbonAwareEasyScheduler({}, nullptr), greenhpc::InvalidArgument);
}

TEST(CarbonAware, ConfigValidation) {
  CarbonAwareEasyScheduler::Config bad;
  bad.green_quantile = 0.0;
  EXPECT_THROW(CarbonAwareEasyScheduler(bad, persistence()), greenhpc::InvalidArgument);
  bad = {};
  bad.improvement_factor = 0.0;
  EXPECT_THROW(CarbonAwareEasyScheduler(bad, persistence()), greenhpc::InvalidArgument);
}

TEST(CarbonAware, ShiftsWorkIntoGreenPeriods) {
  // 12h dirty / 12h green square wave, period aligned to days so
  // persistence forecasting is exact. Jobs submitted during the dirty
  // phase should be delayed into the green phase.
  const auto trace = square_trace(500.0, 100.0, hours(12.0), days(6.0));
  // Day pattern: [0,12) = 500 (dirty), [12,24) = 100 (green).
  std::vector<hpcsim::JobSpec> jobs;
  for (int i = 0; i < 6; ++i) {
    // Submit in the dirty morning of day 2 (history has warmed up).
    jobs.push_back(rigid_job(i + 1, days(2.0) + hours(2.0 + i), 2, hours(2.0)));
  }
  CarbonAwareEasyScheduler::Config ca_cfg;
  ca_cfg.max_hold = hours(14.0);
  ca_cfg.lookahead = hours(14.0);

  Simulator sim_easy(cfg(trace), jobs);
  EasyBackfillScheduler easy;
  const auto r_easy = sim_easy.run(easy);

  Simulator sim_ca(cfg(trace), jobs);
  CarbonAwareEasyScheduler ca(ca_cfg, persistence());
  const auto r_ca = sim_ca.run(ca);

  ASSERT_EQ(r_easy.completed_jobs, 6);
  ASSERT_EQ(r_ca.completed_jobs, 6);
  // Carbon-aware runs strictly cleaner on job carbon.
  Carbon easy_carbon{}, ca_carbon{};
  for (const auto& j : r_easy.jobs) easy_carbon += j.carbon;
  for (const auto& j : r_ca.jobs) ca_carbon += j.carbon;
  EXPECT_LT(ca_carbon.grams(), easy_carbon.grams() * 0.75);
  // And jobs were actually delayed into the green window (>= 12:00).
  for (const auto& j : r_ca.jobs) {
    const double hour_of_day = std::fmod(j.start.hours(), 24.0);
    EXPECT_GE(hour_of_day, 11.9);
  }
}

TEST(CarbonAware, MaxHoldBoundsTheDelay) {
  // Permanently dirty trace with a tiny daily dip the forecaster sees:
  // jobs can never find a green window but must start once max_hold
  // expires.
  const auto trace = square_trace(500.0, 480.0, hours(12.0), days(4.0));
  std::vector<hpcsim::JobSpec> jobs = {rigid_job(1, days(1.5), 2, hours(1.0))};
  CarbonAwareEasyScheduler::Config ca_cfg;
  ca_cfg.max_hold = hours(3.0);
  ca_cfg.improvement_factor = 0.5;  // demands a 2x improvement: never comes
  Simulator sim(cfg(trace), jobs);
  CarbonAwareEasyScheduler ca(ca_cfg, persistence());
  const auto r = sim.run(ca);
  ASSERT_TRUE(r.jobs[0].completed);
  EXPECT_LE(r.jobs[0].wait().hours(), 3.1);
}

TEST(CarbonAware, GreenNowStartsImmediately) {
  const auto trace = square_trace(100.0, 500.0, hours(12.0), days(4.0));
  // Submit during the green phase of day 2.
  std::vector<hpcsim::JobSpec> jobs = {rigid_job(1, days(2.0) + hours(3.0), 2, hours(1.0))};
  Simulator sim(cfg(trace), jobs);
  CarbonAwareEasyScheduler ca({}, persistence());
  const auto r = sim.run(ca);
  EXPECT_LE(r.jobs[0].wait().minutes(), 5.0);
}

TEST(CarbonAware, QueuePressureOpensTheGate) {
  // Dirty phase, but the backlog exceeds the pressure limit -> schedule
  // anyway (holding would only waste wait time).
  const auto trace = square_trace(500.0, 100.0, hours(12.0), days(6.0));
  std::vector<hpcsim::JobSpec> jobs;
  for (int i = 0; i < 24; ++i) {
    jobs.push_back(rigid_job(i + 1, days(2.0) + hours(1.0), 4, hours(4.0)));
  }
  CarbonAwareEasyScheduler::Config ca_cfg;
  ca_cfg.backlog_pressure_limit = 2.0;  // 24 jobs x 4 nodes >> 2 x 8 nodes
  Simulator sim(cfg(trace, 8), jobs);
  CarbonAwareEasyScheduler ca(ca_cfg, persistence());
  const auto r = sim.run(ca);
  // First jobs start immediately despite the dirty phase.
  Duration earliest = days(100.0);
  for (const auto& j : r.jobs) {
    if (j.completed) earliest = std::min(earliest, j.start);
  }
  EXPECT_LE((earliest - (days(2.0) + hours(1.0))).minutes(), 5.0);
}

TEST(CarbonAware, ReusedInstanceDetectsAFreshRunThatStartsLate) {
  // Run A consumes 20 h of a constantly dirty trace (its only job waits
  // in the queue from 20 h). Run B's first job arrives at 26 h, so B's
  // history is already longer than what A consumed, and the instance must
  // notice from the history itself that B is a fresh run. B's trace is
  // dirty [0, 12 h), green [12 h, 24 h), dirty again: at 26 h the correct
  // window puts the 40 % quantile on the green level and holds the job
  // until the dirty values reach it, just after 30 h, while A's leftover
  // values would call 26 h green at once.
  const auto dirty = square_trace(1000.0, 1000.0, hours(12.0), days(3.0));
  const auto wave = square_trace(500.0, 100.0, hours(12.0), days(4.0));
  const std::vector<hpcsim::JobSpec> jobs_a = {
      rigid_job(1, seconds(0.0), 8, hours(21.0)), rigid_job(2, hours(20.0), 2, hours(1.0))};
  const std::vector<hpcsim::JobSpec> jobs_b = {rigid_job(1, hours(26.0), 2, hours(1.0))};
  CarbonAwareEasyScheduler::Config ca_cfg;
  ca_cfg.max_hold = hours(14.0);
  ca_cfg.lookahead = hours(12.0);

  CarbonAwareEasyScheduler reused(ca_cfg, persistence());
  (void)Simulator(cfg(dirty), jobs_a).run(reused);
  const auto second = Simulator(cfg(wave), jobs_b).run(reused);
  CarbonAwareEasyScheduler fresh(ca_cfg, persistence());
  const auto first = Simulator(cfg(wave), jobs_b).run(fresh);

  ASSERT_TRUE(first.jobs[0].completed);
  EXPECT_GE(first.jobs[0].start.hours(), 30.0);  // held, not started at 26 h
  EXPECT_EQ(second.jobs[0].start.seconds(), first.jobs[0].start.seconds());
  EXPECT_EQ(second.total_carbon.grams(), first.total_carbon.grams());
}

}  // namespace
}  // namespace greenhpc::sched

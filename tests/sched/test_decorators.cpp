#include "sched/decorators.hpp"

#include <gtest/gtest.h>

#include "hpcsim/simulator.hpp"
#include "powerstack/policies.hpp"
#include "sched/easy_backfill.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace greenhpc::sched {
namespace {

using greenhpc::testing::malleable_job;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using greenhpc::testing::square_trace;
using hpcsim::Simulator;

Simulator::Config cfg(util::TimeSeries trace, int nodes = 8) {
  Simulator::Config c;
  c.cluster = small_cluster(nodes);
  c.carbon_intensity = std::move(trace);
  return c;
}

TEST(Checkpoint, RequiresInnerAndHysteresis) {
  EXPECT_THROW(CheckpointDecorator({}, nullptr), greenhpc::InvalidArgument);
  CheckpointDecorator::Config bad;
  bad.suspend_quantile = 0.4;
  bad.resume_quantile = 0.6;
  EXPECT_THROW(CheckpointDecorator(bad, std::make_unique<EasyBackfillScheduler>()),
               greenhpc::InvalidArgument);
}

TEST(Checkpoint, NameComposition) {
  CheckpointDecorator d({}, std::make_unique<EasyBackfillScheduler>());
  EXPECT_EQ(d.name(), "easy-backfill+checkpoint");
  MalleableDecorator m({}, std::make_unique<EasyBackfillScheduler>());
  EXPECT_EQ(m.name(), "easy-backfill+malleable");
}

TEST(Checkpoint, SuspendsInDirtyResumesInGreen) {
  // Square wave 12h green / 12h dirty. A long checkpointable job started
  // in green should be suspended when the dirty phase hits and resumed in
  // the next green phase.
  const auto trace = square_trace(100.0, 500.0, hours(12.0), days(8.0));
  hpcsim::JobSpec j = rigid_job(1, days(1.0) + hours(1.0), 4, hours(20.0));
  j.checkpointable = true;
  j.walltime = hours(40.0);
  Simulator sim(cfg(trace), {j});
  CheckpointDecorator sched({}, std::make_unique<EasyBackfillScheduler>());
  const auto r = sim.run(sched);
  ASSERT_TRUE(r.jobs[0].completed);
  EXPECT_GE(r.jobs[0].suspend_count, 1);
  // Carbon should beat the non-checkpointing baseline.
  Simulator sim_base(cfg(trace), {j});
  EasyBackfillScheduler base;
  const auto rb = sim_base.run(base);
  EXPECT_LT(r.jobs[0].carbon.grams(), rb.jobs[0].carbon.grams());
}

TEST(Checkpoint, LeavesNonCheckpointableAlone) {
  const auto trace = square_trace(100.0, 500.0, hours(12.0), days(6.0));
  hpcsim::JobSpec j = rigid_job(1, days(1.0) + hours(1.0), 4, hours(20.0));
  j.checkpointable = false;
  j.walltime = hours(40.0);
  Simulator sim(cfg(trace), {j});
  CheckpointDecorator sched({}, std::make_unique<EasyBackfillScheduler>());
  const auto r = sim.run(sched);
  ASSERT_TRUE(r.jobs[0].completed);
  EXPECT_EQ(r.jobs[0].suspend_count, 0);
}

TEST(Checkpoint, SkipsNearlyDoneJobs) {
  const auto trace = square_trace(100.0, 500.0, hours(12.0), days(4.0));
  // Job finishes within min_remaining of the dirty edge -> not suspended.
  hpcsim::JobSpec j = rigid_job(1, days(1.0) + hours(1.0), 4, hours(11.5));
  j.checkpointable = true;
  j.walltime = hours(23.0);
  CheckpointDecorator::Config ckpt_cfg;
  ckpt_cfg.min_remaining = hours(2.0);
  Simulator sim(cfg(trace), {j});
  CheckpointDecorator sched(ckpt_cfg, std::make_unique<EasyBackfillScheduler>());
  const auto r = sim.run(sched);
  ASSERT_TRUE(r.jobs[0].completed);
  EXPECT_EQ(r.jobs[0].suspend_count, 0);
}

TEST(Checkpoint, MinDwellHoldsResumePastGreenEdge) {
  // Same scenario twice, only min_dwell differs. The job is suspended when
  // the dirty phase hits; when the green phase returns the short-dwell run
  // resumes at the edge, while the long-dwell run must sit out most of the
  // green window (dwell expires mid-window), finishing hours later.
  const auto trace = square_trace(100.0, 500.0, hours(12.0), days(8.0));
  hpcsim::JobSpec j = rigid_job(1, days(1.0) + hours(1.0), 4, hours(20.0));
  j.checkpointable = true;
  j.walltime = hours(40.0);

  auto run_with_dwell = [&](Duration dwell) {
    CheckpointDecorator::Config c;
    c.min_dwell = dwell;
    Simulator sim(cfg(trace), {j});
    CheckpointDecorator sched(c, std::make_unique<EasyBackfillScheduler>());
    return sim.run(sched);
  };
  const auto r_short = run_with_dwell(minutes(30.0));
  const auto r_long = run_with_dwell(hours(18.0));
  ASSERT_TRUE(r_short.jobs[0].completed);
  ASSERT_TRUE(r_long.jobs[0].completed);
  ASSERT_GE(r_short.jobs[0].suspend_count, 1);
  ASSERT_GE(r_long.jobs[0].suspend_count, 1);
  // Suspended ~11 h into a 12 h dirty phase; an 18 h dwell eats ~6 h of
  // the following green window that the 30 min dwell does not.
  EXPECT_GT(r_long.jobs[0].finish.hours(), r_short.jobs[0].finish.hours() + 3.0);
}

TEST(Malleable, ShrinksUnderBudgetGrowsWithHeadroom) {
  // Budget halves in the "dirty" phase; malleable jobs should shrink
  // instead of running deeply capped, then grow back.
  const auto trace = square_trace(100.0, 500.0, hours(12.0), days(6.0));
  hpcsim::JobSpec j = malleable_job(1, days(1.0), 4, hours(30.0), 8);
  j.walltime = hours(60.0);
  Simulator sim(cfg(trace), {j});
  MalleableDecorator sched({}, std::make_unique<EasyBackfillScheduler>());
  powerstack::IntensityProportionalPolicy budget(
      {.ci_clean = 150.0, .ci_dirty = 400.0, .min_fraction = 0.4, .max_fraction = 1.0});
  const auto r = sim.run(sched, &budget);
  ASSERT_TRUE(r.jobs[0].completed);
  // The allocation varied: busy-node series must show at least two levels.
  double lo = 1e9, hi = 0.0;
  for (const auto& run : r.busy_nodes.runs()) {
    const double v = run.value;
    if (v <= 0.0) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, hi);
}

TEST(Malleable, NoMalleableJobsIsHarmless) {
  const auto trace = square_trace(100.0, 500.0, hours(12.0), days(4.0));
  Simulator sim(cfg(trace), {rigid_job(1, seconds(0.0), 4, hours(2.0))});
  MalleableDecorator sched({}, std::make_unique<EasyBackfillScheduler>());
  const auto r = sim.run(sched);
  EXPECT_TRUE(r.jobs[0].completed);
}

TEST(Malleable, ConfigValidation) {
  EXPECT_THROW(MalleableDecorator({}, nullptr), greenhpc::InvalidArgument);
  MalleableDecorator::Config bad;
  bad.max_step = 0;
  EXPECT_THROW(MalleableDecorator(bad, std::make_unique<EasyBackfillScheduler>()),
               greenhpc::InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::sched

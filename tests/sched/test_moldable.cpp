#include <gtest/gtest.h>

#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "sched/easy_backfill.hpp"
#include "testing/helpers.hpp"

namespace greenhpc::sched {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::OneRowTable;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using hpcsim::JobKind;
using hpcsim::JobSpec;
using hpcsim::Simulator;

JobSpec moldable_job(int id, Duration submit, int natural, Duration runtime) {
  JobSpec j = rigid_job(id, submit, natural, runtime);
  j.kind = JobKind::Moldable;
  j.min_nodes = std::max(1, natural / 2);
  j.max_nodes = natural * 2;
  return j;
}

Simulator::Config cfg(int nodes) {
  Simulator::Config c;
  c.cluster = small_cluster(nodes);
  c.carbon_intensity = constant_trace(200.0, days(2.0));
  return c;
}

TEST(ShrinkToFit, SizingRules) {
  const OneRowTable m(moldable_job(1, seconds(0.0), 8, hours(1.0)));
  EXPECT_EQ(shrink_to_fit_nodes(m.table(), 0, 10), 8);  // natural fits
  EXPECT_EQ(shrink_to_fit_nodes(m.table(), 0, 8), 8);
  EXPECT_EQ(shrink_to_fit_nodes(m.table(), 0, 6), 6);   // shrink to available
  EXPECT_EQ(shrink_to_fit_nodes(m.table(), 0, 4), 4);   // down to min
  EXPECT_EQ(shrink_to_fit_nodes(m.table(), 0, 3), 0);   // below min: cannot start
  const OneRowTable r(rigid_job(2, seconds(0.0), 8, hours(1.0)));
  EXPECT_EQ(shrink_to_fit_nodes(r.table(), 0, 6), 0);   // rigid never shrinks
  EXPECT_EQ(shrink_to_fit_nodes(r.table(), 0, 8), 8);
}

TEST(MoldableEasy, ShrinksIntoPartialCluster) {
  // 6 of 8 nodes are busy; a moldable job of natural size 4 (min 2) can
  // start immediately on 2 nodes with shrinking, but must wait without.
  std::vector<JobSpec> jobs = {rigid_job(1, seconds(0.0), 6, hours(2.0)),
                               moldable_job(2, minutes(1.0), 4, hours(1.0))};
  Simulator sim_shrink(cfg(8), jobs);
  EasyBackfillScheduler shrink(true);
  const auto rs = sim_shrink.run(shrink);
  EXPECT_LT(rs.jobs[1].start.minutes(), 3.0);

  Simulator sim_plain(cfg(8), jobs);
  EasyBackfillScheduler plain(false);
  const auto rp = sim_plain.run(plain);
  EXPECT_GT(rp.jobs[1].start.hours(), 1.5);
}

TEST(MoldableEasy, ShrunkJobRunsLonger) {
  // Running at half size with gamma < 1 costs more than 2x runtime.
  std::vector<JobSpec> jobs = {rigid_job(1, seconds(0.0), 6, hours(2.0)),
                               moldable_job(2, minutes(1.0), 4, hours(1.0))};
  jobs[1].scale_gamma = 0.9;
  Simulator sim(cfg(8), jobs);
  EasyBackfillScheduler shrink(true);
  const auto r = sim.run(shrink);
  const double elapsed = (r.jobs[1].finish - r.jobs[1].start).hours();
  EXPECT_GT(elapsed, 1.5);  // 2^0.9 ~ 1.87x of 1h
  EXPECT_LT(elapsed, 2.1);
}

TEST(MoldableEasy, NameReflectsMode) {
  EXPECT_EQ(EasyBackfillScheduler(true).name(), "easy-backfill+mold");
  EXPECT_EQ(EasyBackfillScheduler(false).name(), "easy-backfill");
}

TEST(MoldableEasy, GeneratorProducesMoldables) {
  hpcsim::WorkloadConfig wl;
  wl.job_count = 1000;
  wl.span = days(2.0);
  wl.moldable_fraction = 0.3;
  wl.malleable_fraction = 0.2;
  const auto jobs = hpcsim::WorkloadGenerator(wl, 5).generate();
  int moldable = 0, malleable = 0;
  for (const auto& j : jobs) {
    if (j.kind == JobKind::Moldable) ++moldable;
    if (j.kind == JobKind::Malleable) ++malleable;
    if (j.kind == JobKind::Moldable) {
      EXPECT_LE(j.min_nodes, j.nodes_used);
      EXPECT_GE(j.max_nodes, j.nodes_used);
    }
  }
  EXPECT_NEAR(moldable / 1000.0, 0.3, 0.05);
  EXPECT_NEAR(malleable / 1000.0, 0.2, 0.05);
}

TEST(MoldableEasy, ImprovesWaitOnMoldableWorkload) {
  hpcsim::WorkloadConfig wl;
  wl.job_count = 120;
  wl.span = days(1.0);
  wl.max_job_nodes = 16;
  wl.moldable_fraction = 0.6;
  const auto jobs = hpcsim::WorkloadGenerator(wl, 9).generate();
  Simulator sim_shrink(cfg(32), jobs);
  EasyBackfillScheduler shrink(true);
  const auto rs = sim_shrink.run(shrink);
  Simulator sim_plain(cfg(32), jobs);
  EasyBackfillScheduler plain(false);
  const auto rp = sim_plain.run(plain);
  EXPECT_EQ(rs.completed_jobs, rp.completed_jobs);
  EXPECT_LE(rs.mean_wait_hours(), rp.mean_wait_hours() + 1e-9);
}

}  // namespace
}  // namespace greenhpc::sched

#include "sched/fcfs.hpp"

#include <gtest/gtest.h>

#include "hpcsim/simulator.hpp"
#include "testing/helpers.hpp"

namespace greenhpc::sched {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::malleable_job;
using greenhpc::testing::OneRowTable;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using hpcsim::Simulator;

Simulator::Config cfg(int nodes) {
  Simulator::Config c;
  c.cluster = small_cluster(nodes);
  c.carbon_intensity = constant_trace(200.0, days(2.0));
  return c;
}

TEST(Fcfs, StartNodesHelper) {
  EXPECT_EQ(start_nodes(OneRowTable(rigid_job(1, seconds(0.0), 4, hours(1.0))).table(), 0), 4);
  const OneRowTable m(malleable_job(2, seconds(0.0), 6, hours(1.0), 16));
  EXPECT_EQ(start_nodes(m.table(), 0), 6);
  auto fat = rigid_job(3, seconds(0.0), 8, hours(1.0));
  fat.nodes_used = 4;
  EXPECT_EQ(start_nodes(OneRowTable(fat).table(), 0), 8);  // rigid holds what was requested
}

TEST(Fcfs, RunsInSubmissionOrder) {
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 8, hours(1.0)),
      rigid_job(2, minutes(1.0), 8, hours(1.0)),
      rigid_job(3, minutes(2.0), 8, hours(1.0)),
  };
  Simulator sim(cfg(8), jobs);
  FcfsScheduler sched;
  const auto result = sim.run(sched);
  EXPECT_LT(result.jobs[0].start, result.jobs[1].start);
  EXPECT_LT(result.jobs[1].start, result.jobs[2].start);
  EXPECT_EQ(result.completed_jobs, 3);
}

TEST(Fcfs, HeadOfLineBlocking) {
  // Big head job blocks a small one even though it would fit — the FCFS
  // pathology EASY exists to fix.
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 6, hours(2.0)),   // running
      rigid_job(2, minutes(1.0), 6, hours(1.0)),   // blocked head (needs 6, 2 free)
      rigid_job(3, minutes(2.0), 2, minutes(30.0)) // would fit in the 2 free nodes
  };
  Simulator sim(cfg(8), jobs);
  FcfsScheduler sched;
  const auto result = sim.run(sched);
  // Job 3 must NOT start before job 2 under strict FCFS.
  EXPECT_GE(result.jobs[2].start, result.jobs[1].start);
}

TEST(Fcfs, NameIsStable) {
  FcfsScheduler sched;
  EXPECT_EQ(sched.name(), "fcfs");
}

}  // namespace
}  // namespace greenhpc::sched

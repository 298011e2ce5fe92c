#include "hpcsim/result.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "hpcsim/simulator.hpp"
#include "testing/helpers.hpp"
#include "testing/random_runs.hpp"
#include "util/rng.hpp"

namespace greenhpc::hpcsim {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::GreedyScheduler;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;

JobRecord make_record(Duration submit, Duration start, Duration finish,
                      Duration runtime) {
  JobRecord r;
  r.spec = rigid_job(1, submit, 2, runtime);
  r.completed = true;
  r.submit = submit;
  r.start = start;
  r.finish = finish;
  return r;
}

TEST(JobRecord, WaitAndTurnaround) {
  const auto r = make_record(hours(1.0), hours(3.0), hours(5.0), hours(2.0));
  EXPECT_DOUBLE_EQ(r.wait().hours(), 2.0);
  EXPECT_DOUBLE_EQ(r.turnaround().hours(), 4.0);
}

TEST(JobRecord, BoundedSlowdown) {
  // Turnaround 4h, runtime 2h -> slowdown 2.
  EXPECT_DOUBLE_EQ(
      make_record(hours(1.0), hours(3.0), hours(5.0), hours(2.0)).bounded_slowdown(),
      2.0);
  // Very short job: the 10-minute bound floors the slowdown at 1.
  const auto tiny = make_record(seconds(0.0), seconds(0.0), minutes(5.0), minutes(1.0));
  EXPECT_DOUBLE_EQ(tiny.bounded_slowdown(), 1.0);
}

TEST(SimulationResult, MetricsFromRealRun) {
  const auto cluster = small_cluster(8);
  std::vector<JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 4, hours(2.0)),
      rigid_job(2, seconds(0.0), 4, hours(2.0)),
      rigid_job(3, hours(1.0), 8, hours(1.0)),
  };
  Simulator::Config cfg;
  cfg.cluster = cluster;
  cfg.carbon_intensity = constant_trace(200.0, days(1.0));
  Simulator sim(cfg, jobs);
  GreedyScheduler sched;
  const auto result = sim.run(sched);

  EXPECT_EQ(result.completed_jobs, 3);
  EXPECT_GT(result.makespan.hours(), 2.9);
  EXPECT_GT(result.utilization(cluster), 0.3);
  EXPECT_LE(result.utilization(cluster), 1.0);
  EXPECT_GT(result.mean_bounded_slowdown(), 0.99);
  EXPECT_GE(result.mean_wait_hours(), 0.0);
  EXPECT_GT(result.node_hours_completed(), 23.0);  // 8 + 8 + 8 node-hours
  EXPECT_GT(result.carbon_per_node_hour(), 0.0);
  // Constant intensity: everything or nothing is green.
  EXPECT_DOUBLE_EQ(result.green_energy_share(250.0), 1.0);
  EXPECT_DOUBLE_EQ(result.green_energy_share(150.0), 0.0);
}

TEST(SimulationResult, EmptyMetricsAreZero) {
  SimulationResult r;
  EXPECT_DOUBLE_EQ(r.mean_wait_hours(), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_bounded_slowdown(), 0.0);
  EXPECT_DOUBLE_EQ(r.node_hours_completed(), 0.0);
  EXPECT_DOUBLE_EQ(r.carbon_per_node_hour(), 0.0);
  EXPECT_DOUBLE_EQ(r.green_energy_share(100.0), 0.0);
  EXPECT_DOUBLE_EQ(r.utilization(small_cluster(4)), 0.0);
}

TEST(SimulationResult, IncompleteJobsExcludedFromMeans) {
  SimulationResult r;
  JobRecord done = make_record(seconds(0.0), hours(1.0), hours(2.0), hours(1.0));
  JobRecord pending;
  pending.spec = rigid_job(2, seconds(0.0), 2, hours(1.0));
  pending.completed = false;
  r.jobs = {done, pending};
  EXPECT_DOUBLE_EQ(r.mean_wait_hours(), 1.0);
  EXPECT_DOUBLE_EQ(r.node_hours_completed(), 2.0);
}

/// green_energy_share as a per-sample loop over flat series.
double flat_green_share(const util::TimeSeries& power, const util::TimeSeries& ci,
                        double idle_w, double threshold) {
  double green = 0.0;
  double total = 0.0;
  const std::size_t n = std::min(power.size(), ci.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double e = std::max(0.0, power.at(i) - idle_w);
    total += e;
    if (ci.at(i) <= threshold) green += e;
  }
  return total > 0.0 ? green / total : 0.0;
}

// Seeded property: the run-walking metrics equal their per-sample
// definitions over the expanded series bit for bit, on random run lists
// of unequal lengths (one-sample and one-run series included).
TEST(SimulationResult, RunwiseMetricsMatchFlatSamplesOnRandomRuns) {
  util::Rng rng(4283914);
  const auto cluster = small_cluster(64);
  const double thresholds[] = {0.0, 42.0, 250.0, 1e9};
  const double idle_floors[] = {0.0, 1.5, 110.0};
  for (std::size_t k = 0; k < 256; ++k) {
    SCOPED_TRACE(k);
    SimulationResult r;
    r.system_power = greenhpc::testing::random_step_series(rng, k);
    r.carbon_intensity = greenhpc::testing::random_step_series(rng, k + 5);
    r.busy_nodes = greenhpc::testing::random_step_series(rng, k + 3);
    r.idle_floor = watts(idle_floors[rng.uniform_int(0, 2)]);
    r.makespan = hours(rng.uniform(0.5, 100.0));
    const util::TimeSeries power = r.system_power.expand();
    const util::TimeSeries ci = r.carbon_intensity.expand();
    const util::TimeSeries busy = r.busy_nodes.expand();

    const double threshold =
        rng.bernoulli(0.5) ? thresholds[rng.uniform_int(0, 3)] : rng.uniform(0.0, 600.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.green_energy_share(threshold)),
              std::bit_cast<std::uint64_t>(
                  flat_green_share(power, ci, r.idle_floor.watts(), threshold)));
    const double node_seconds = busy.integrate(busy.start(), busy.end());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.busy_node_seconds()),
              std::bit_cast<std::uint64_t>(node_seconds));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.utilization(cluster)),
              std::bit_cast<std::uint64_t>(
                  node_seconds / (static_cast<double>(cluster.nodes) *
                                  r.makespan.seconds())));
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace greenhpc::hpcsim

// Property-based sweeps over the simulator: invariants that must hold for
// every workload seed, cluster size and scheduling policy.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>

#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "testing/helpers.hpp"

namespace greenhpc::hpcsim {
namespace {

using greenhpc::testing::constant_trace;

struct SimCase {
  std::uint64_t seed;
  int nodes;
  bool easy;  // EASY vs FCFS
  // Explicit zeroed tail instead of padding: gtest prints a parameter's
  // bytes into its ctest name, and padding would carry stack garbage.
  char unused[3] = {};
};
static_assert(std::has_unique_object_representations_v<SimCase>,
              "SimCase must have no padding bytes");

class SimulatorProperties : public ::testing::TestWithParam<SimCase> {
 protected:
  SimulationResult run() const {
    const SimCase& c = GetParam();
    WorkloadConfig wl;
    wl.job_count = 80;
    wl.span = days(2.0);
    wl.max_job_nodes = c.nodes / 2;
    wl.malleable_fraction = 0.2;
    wl.checkpointable_fraction = 0.3;
    const auto jobs = WorkloadGenerator(wl, c.seed).generate();

    Simulator::Config cfg;
    cfg.cluster = greenhpc::testing::small_cluster(c.nodes);
    cfg.carbon_intensity = constant_trace(250.0, days(1.0));  // clamps beyond
    Simulator sim(cfg, jobs);
    if (c.easy) {
      sched::EasyBackfillScheduler sched;
      return sim.run(sched);
    }
    sched::FcfsScheduler sched;
    return sim.run(sched);
  }
};

TEST_P(SimulatorProperties, AllJobsComplete) {
  const auto r = run();
  EXPECT_EQ(r.completed_jobs, 80);
  for (const auto& j : r.jobs) EXPECT_TRUE(j.completed) << j.spec.id;
}

TEST_P(SimulatorProperties, EnergyDecomposes) {
  // Total energy == sum of job energies + idle-node energy, exactly (the
  // engine integrates both from the same tick loop).
  const auto r = run();
  Energy job_total{};
  for (const auto& j : r.jobs) job_total += j.energy;
  EXPECT_NEAR(r.total_energy.joules(), (job_total + r.idle_energy).joules(),
              1e-6 * r.total_energy.joules());
}

TEST_P(SimulatorProperties, CarbonMatchesConstantIntensity) {
  // With a constant 250 g/kWh trace, carbon == energy * 250 exactly.
  const auto r = run();
  EXPECT_NEAR(r.total_carbon.grams(), r.total_energy.kilowatt_hours() * 250.0,
              1e-6 * r.total_carbon.grams());
  for (const auto& j : r.jobs) {
    EXPECT_NEAR(j.carbon.grams(), j.energy.kilowatt_hours() * 250.0,
                1e-6 * std::max(1.0, j.carbon.grams()));
  }
}

TEST_P(SimulatorProperties, AllocationNeverExceedsCluster) {
  const auto r = run();
  for (const auto& run : r.busy_nodes.runs()) {
    const double busy = run.value;
    EXPECT_LE(busy, static_cast<double>(GetParam().nodes) + 1e-9);
    EXPECT_GE(busy, 0.0);
  }
}

TEST_P(SimulatorProperties, CausalityAndOrdering) {
  const auto r = run();
  for (const auto& j : r.jobs) {
    EXPECT_GE(j.start, j.submit) << j.spec.id;
    EXPECT_GT(j.finish, j.start) << j.spec.id;
    // A job can never finish faster than its ideal runtime.
    EXPECT_GE((j.finish - j.start).seconds() * (1.0 + 1e-9),
              j.spec.runtime.seconds() *
                  std::pow(static_cast<double>(j.spec.nodes_used) /
                               std::max(j.spec.nodes_used, j.spec.max_nodes),
                           j.spec.scale_gamma))
        << j.spec.id;
  }
}

TEST_P(SimulatorProperties, PowerSeriesBounded) {
  const auto r = run();
  const auto cluster = greenhpc::testing::small_cluster(GetParam().nodes);
  for (const auto& run : r.system_power.runs()) {
    const double p = run.value;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, cluster.max_power().watts() * (1.0 + 1e-9));
  }
}

TEST_P(SimulatorProperties, DeterministicRepetition) {
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_DOUBLE_EQ(a.total_carbon.grams(), b.total_carbon.grams());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatorProperties,
    ::testing::Values(SimCase{1, 16, true}, SimCase{2, 16, false},
                      SimCase{3, 32, true}, SimCase{4, 32, false},
                      SimCase{5, 64, true}, SimCase{6, 64, false},
                      SimCase{7, 24, true}, SimCase{8, 48, true}),
    [](const ::testing::TestParamInfo<SimCase>& pinfo) {
      return "seed" + std::to_string(pinfo.param.seed) + "_n" +
             std::to_string(pinfo.param.nodes) + (pinfo.param.easy ? "_easy" : "_fcfs");
    });

}  // namespace
}  // namespace greenhpc::hpcsim

// Property-based sweeps over every scheduling policy: liveness (no job is
// starved), legality (allocations within spec), and determinism must hold
// for each scheduler x workload combination.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "carbon/forecast.hpp"
#include "carbon/grid_model.hpp"
#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/conservative.hpp"
#include "sched/decorators.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "testing/helpers.hpp"

namespace greenhpc::sched {
namespace {

// 64-bit so SchedCase has no padding: gtest names each case by a hex dump
// of its bytes, and padding bytes hold whatever the stack held, which made
// the ctest names differ from build to build.
enum class Policy : std::uint64_t {
  Fcfs,
  Easy,
  EasyMold,
  Conservative,
  CarbonEasy,
  CarbonEasyCkpt,
  EasyMalleable,
};

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::Fcfs: return "fcfs";
    case Policy::Easy: return "easy";
    case Policy::EasyMold: return "easy_mold";
    case Policy::Conservative: return "conservative";
    case Policy::CarbonEasy: return "carbon_easy";
    case Policy::CarbonEasyCkpt: return "carbon_easy_ckpt";
    case Policy::EasyMalleable: return "easy_malleable";
  }
  return "?";
}

std::unique_ptr<hpcsim::SchedulingPolicy> make_policy(Policy p) {
  switch (p) {
    case Policy::Fcfs:
      return std::make_unique<FcfsScheduler>();
    case Policy::Easy:
      return std::make_unique<EasyBackfillScheduler>();
    case Policy::EasyMold:
      return std::make_unique<EasyBackfillScheduler>(true);
    case Policy::Conservative:
      return std::make_unique<ConservativeBackfillScheduler>();
    case Policy::CarbonEasy: {
      CarbonAwareEasyScheduler::Config cfg;
      cfg.max_hold = hours(6.0);
      return std::make_unique<CarbonAwareEasyScheduler>(
          cfg, std::make_shared<carbon::PersistenceForecaster>());
    }
    case Policy::CarbonEasyCkpt: {
      CarbonAwareEasyScheduler::Config cfg;
      cfg.max_hold = hours(6.0);
      return std::make_unique<CheckpointDecorator>(
          CheckpointDecorator::Config{},
          std::make_unique<CarbonAwareEasyScheduler>(
              cfg, std::make_shared<carbon::PersistenceForecaster>()));
    }
    case Policy::EasyMalleable:
      return std::make_unique<MalleableDecorator>(
          MalleableDecorator::Config{}, std::make_unique<EasyBackfillScheduler>());
  }
  return nullptr;
}

struct SchedCase {
  Policy policy;
  std::uint64_t seed;
};
static_assert(sizeof(SchedCase) == sizeof(Policy) + sizeof(std::uint64_t),
              "SchedCase must have no padding bytes (they reach the test names)");

class SchedulerProperties : public ::testing::TestWithParam<SchedCase> {
 protected:
  hpcsim::SimulationResult run() const {
    hpcsim::WorkloadConfig wl;
    wl.job_count = 70;
    wl.span = days(2.0);
    wl.max_job_nodes = 16;
    wl.malleable_fraction = 0.2;
    wl.moldable_fraction = 0.2;
    wl.checkpointable_fraction = 0.4;
    const auto jobs = hpcsim::WorkloadGenerator(wl, GetParam().seed).generate();
    hpcsim::Simulator::Config cfg;
    cfg.cluster = greenhpc::testing::small_cluster(32);
    cfg.cluster.tick = minutes(2.0);
    carbon::GridModel grid(carbon::Region::Germany, GetParam().seed);
    cfg.carbon_intensity = grid.generate(seconds(0.0), days(6.0), minutes(30.0));
    hpcsim::Simulator sim(cfg, jobs);
    auto policy = make_policy(GetParam().policy);
    return sim.run(*policy);
  }
};

TEST_P(SchedulerProperties, NoJobIsStarved) {
  const auto r = run();
  EXPECT_EQ(r.completed_jobs, 70);
}

TEST_P(SchedulerProperties, AllocationsLegal) {
  const auto r = run();
  for (const auto& j : r.jobs) {
    EXPECT_GE(j.start, j.submit) << j.spec.id;
    EXPECT_GT(j.finish, j.start) << j.spec.id;
    EXPECT_GE(j.energy.joules(), 0.0) << j.spec.id;
  }
}

TEST_P(SchedulerProperties, DeterministicAcrossRuns) {
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.total_carbon.grams(), b.total_carbon.grams());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << a.jobs[i].spec.id;
  }
}

TEST_P(SchedulerProperties, EnergyDecomposes) {
  const auto r = run();
  Energy job_total{};
  for (const auto& j : r.jobs) job_total += j.energy;
  EXPECT_NEAR(r.total_energy.joules(), (job_total + r.idle_energy).joules(),
              1e-6 * r.total_energy.joules());
}

std::vector<SchedCase> all_cases() {
  std::vector<SchedCase> cases;
  for (Policy p : {Policy::Fcfs, Policy::Easy, Policy::EasyMold, Policy::Conservative,
                   Policy::CarbonEasy, Policy::CarbonEasyCkpt, Policy::EasyMalleable}) {
    for (std::uint64_t seed : {3ull, 19ull}) cases.push_back({p, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerProperties, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<SchedCase>& pinfo) {
                           return std::string(policy_name(pinfo.param.policy)) + "_s" +
                                  std::to_string(pinfo.param.seed);
                         });

}  // namespace
}  // namespace greenhpc::sched

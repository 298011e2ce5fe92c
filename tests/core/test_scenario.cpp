#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "carbon/forecast.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"

namespace greenhpc::core {
namespace {

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.cluster.nodes = 32;
  cfg.cluster.tick = minutes(2.0);
  cfg.region = carbon::Region::Germany;
  cfg.trace_span = days(4.0);
  cfg.workload.job_count = 60;
  cfg.workload.span = days(2.0);
  cfg.workload.max_job_nodes = 16;
  cfg.seed = 11;
  return cfg;
}

TEST(Scenario, BuildsSharedInputs) {
  ScenarioRunner runner(small_scenario());
  EXPECT_EQ(runner.jobs().size(), 60u);
  EXPECT_GT(runner.trace().size(), 0u);
  EXPECT_GT(runner.green_threshold(), 0.0);
}

TEST(Scenario, RunProducesDerivedMetrics) {
  ScenarioRunner runner(small_scenario());
  const auto outcome =
      runner.run("easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); });
  EXPECT_EQ(outcome.scheduler, "easy");
  EXPECT_EQ(outcome.power_policy, "unconstrained");
  EXPECT_GT(outcome.completed, 50);
  EXPECT_GT(outcome.total_carbon_t, 0.0);
  EXPECT_GT(outcome.total_energy_mwh, 0.0);
  EXPECT_GT(outcome.utilization, 0.0);
  EXPECT_LE(outcome.utilization, 1.0);
  EXPECT_GE(outcome.green_energy_share, 0.0);
  EXPECT_LE(outcome.green_energy_share, 1.0);
}

TEST(Scenario, SameFactorySameResult) {
  ScenarioRunner runner(small_scenario());
  const auto a =
      runner.run("fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); });
  const auto b =
      runner.run("fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); });
  EXPECT_DOUBLE_EQ(a.total_carbon_t, b.total_carbon_t);
  EXPECT_DOUBLE_EQ(a.mean_wait_h, b.mean_wait_h);
}

TEST(Scenario, DifferentSeedsDifferentWorkload) {
  auto cfg = small_scenario();
  ScenarioRunner a(cfg);
  cfg.seed = 99;
  ScenarioRunner b(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    if (a.jobs()[i].submit != b.jobs()[i].submit) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Scenario, TraceMustCoverWorkload) {
  auto cfg = small_scenario();
  cfg.trace_span = days(1.0);  // < workload span of 2 days
  EXPECT_THROW(ScenarioRunner{cfg}, greenhpc::InvalidArgument);
}

TEST(Scenario, EmptyLabelUsesSchedulerName) {
  ScenarioRunner runner(small_scenario());
  const auto outcome =
      runner.run("", [] { return std::make_unique<sched::FcfsScheduler>(); });
  EXPECT_EQ(outcome.scheduler, "fcfs");
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ScenarioRunner, RunAllMatchesSerialRunsBitForBit) {
  // run_all fans the cases out over the global pool into preallocated
  // slots: every slot must hold exactly what a serial case-by-case run
  // produces, down to the bit pattern of each total and of each job's
  // finish time and energy.
  auto cfg = small_scenario();
  cfg.trace_span = days(5.0);  // room for carbon-aware holds past the span
  cfg.workload.checkpointable_fraction = 0.5;
  const ScenarioRunner runner(cfg);

  std::vector<ScenarioRunner::PolicyCase> cases;
  cases.push_back({"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  cases.push_back({"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  cases.push_back(
      {"easy+mold", [] { return std::make_unique<sched::EasyBackfillScheduler>(true); }});
  for (const double hold_h : {6.0, 12.0, 24.0}) {
    cases.push_back({"carbon-easy/" + std::to_string(static_cast<int>(hold_h)), [hold_h] {
                       sched::CarbonAwareEasyScheduler::Config c;
                       c.max_hold = hours(hold_h);
                       return std::make_unique<sched::CarbonAwareEasyScheduler>(
                           c, std::make_shared<carbon::PersistenceForecaster>());
                     }});
  }

  const std::vector<PolicyOutcome> parallel = runner.run_all(cases);
  ASSERT_EQ(parallel.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PolicyOutcome serial = runner.run(cases[i].label, cases[i].scheduler);
    const PolicyOutcome& p = parallel[i];
    const std::string what = "case " + std::to_string(i) + " (" + cases[i].label + ")";
    EXPECT_EQ(p.scheduler, serial.scheduler) << what;
    EXPECT_EQ(p.power_policy, serial.power_policy) << what;
    EXPECT_EQ(p.completed, serial.completed) << what;
    EXPECT_EQ(bits(p.total_carbon_t), bits(serial.total_carbon_t)) << what;
    EXPECT_EQ(bits(p.total_energy_mwh), bits(serial.total_energy_mwh)) << what;
    EXPECT_EQ(bits(p.carbon_per_node_hour_g), bits(serial.carbon_per_node_hour_g)) << what;
    EXPECT_EQ(bits(p.mean_wait_h), bits(serial.mean_wait_h)) << what;
    EXPECT_EQ(bits(p.mean_bounded_slowdown), bits(serial.mean_bounded_slowdown)) << what;
    EXPECT_EQ(bits(p.utilization), bits(serial.utilization)) << what;
    EXPECT_EQ(bits(p.green_energy_share), bits(serial.green_energy_share)) << what;
    EXPECT_EQ(bits(p.result.total_carbon.grams()), bits(serial.result.total_carbon.grams()))
        << what;
    EXPECT_EQ(bits(p.result.total_energy.joules()), bits(serial.result.total_energy.joules()))
        << what;
    EXPECT_EQ(bits(p.result.makespan.seconds()), bits(serial.result.makespan.seconds()))
        << what;
    ASSERT_EQ(p.result.jobs.size(), serial.result.jobs.size()) << what;
    for (std::size_t j = 0; j < p.result.jobs.size(); ++j) {
      EXPECT_EQ(bits(p.result.jobs[j].finish.seconds()),
                bits(serial.result.jobs[j].finish.seconds()))
          << what << " job " << j;
      EXPECT_EQ(bits(p.result.jobs[j].energy.joules()),
                bits(serial.result.jobs[j].energy.joules()))
          << what << " job " << j;
    }
  }
}

}  // namespace
}  // namespace greenhpc::core

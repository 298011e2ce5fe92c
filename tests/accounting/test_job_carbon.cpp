#include "accounting/job_carbon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "hpcsim/simulator.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace greenhpc::accounting {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::GreedyScheduler;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using greenhpc::testing::square_trace;

hpcsim::SimulationResult run_jobs(std::vector<hpcsim::JobSpec> jobs,
                                  util::TimeSeries trace, int nodes = 8) {
  hpcsim::Simulator::Config cfg;
  cfg.cluster = small_cluster(nodes);
  cfg.carbon_intensity = std::move(trace);
  hpcsim::Simulator sim(cfg, std::move(jobs));
  GreedyScheduler sched;
  return sim.run(sched);
}

TEST(JobCarbon, ProfileMatchesRecord) {
  const auto result =
      run_jobs({rigid_job(1, seconds(0.0), 2, hours(2.0))}, constant_trace(400.0, days(1.0)));
  const auto p =
      profile_job(result.jobs[0], small_cluster(8), result.carbon_intensity.expand());
  EXPECT_EQ(p.id, 1);
  EXPECT_DOUBLE_EQ(p.energy.joules(), result.jobs[0].energy.joules());
  EXPECT_DOUBLE_EQ(p.carbon.grams(), result.jobs[0].carbon.grams());
  EXPECT_NEAR(p.experienced_intensity, 400.0, 5.0);
  // Constant trace: no timing savings possible.
  EXPECT_NEAR(p.timing_savings_potential().grams(), 0.0,
              0.01 * p.carbon.grams() + 1e-9);
  EXPECT_NEAR(p.car_km, p.carbon.grams() / kCarGramsPerKm, 1e-9);
}

TEST(JobCarbon, TimingSavingsOnVariableTrace) {
  // Job runs in the dirty phase of a square wave: big timing savings.
  const auto trace = square_trace(100.0, 500.0, hours(6.0), days(1.0));
  const auto result = run_jobs({rigid_job(1, hours(6.5), 2, hours(4.0))}, trace);
  const auto p =
      profile_job(result.jobs[0], small_cluster(8), result.carbon_intensity.expand());
  EXPECT_NEAR(p.experienced_intensity, 500.0, 20.0);
  EXPECT_GT(p.timing_savings_potential().grams(), 0.5 * p.carbon.grams());
  EXPECT_LE(p.best_case_carbon, p.carbon);
}

TEST(JobCarbon, OverAllocationWaste) {
  hpcsim::JobSpec fat = rigid_job(1, seconds(0.0), 8, hours(1.0));
  fat.nodes_used = 4;
  const auto result = run_jobs({fat}, constant_trace(300.0, days(1.0)));
  const auto p =
      profile_job(result.jobs[0], small_cluster(8), result.carbon_intensity.expand());
  // 4 busy x 400 W vs 4 idle x 100 W -> waste = 400/2000 = 20%.
  EXPECT_NEAR(p.over_allocation_waste, 0.2, 0.01);
  const auto lean = rigid_job(2, seconds(0.0), 4, hours(1.0));
  const auto result2 = run_jobs({lean}, constant_trace(300.0, days(1.0)));
  const auto p2 =
      profile_job(result2.jobs[0], small_cluster(8), result2.carbon_intensity.expand());
  EXPECT_DOUBLE_EQ(p2.over_allocation_waste, 0.0);
}

TEST(JobCarbon, ProfileAllCompletedJobs) {
  std::vector<hpcsim::JobSpec> jobs;
  for (int i = 1; i <= 5; ++i) jobs.push_back(rigid_job(i, minutes(i * 10.0), 2, hours(1.0)));
  const auto result = run_jobs(jobs, constant_trace(250.0, days(1.0)));
  const auto profiles = profile_jobs(result, small_cluster(8));
  EXPECT_EQ(profiles.size(), 5u);
}

TEST(JobCarbon, ProfileJobsMatchesPerJobProfilesBitForBit) {
  // Varying intensity, mixed widths, over-allocated jobs, and one job cut
  // off by max_time (not profiled).
  std::vector<hpcsim::JobSpec> jobs;
  for (int i = 1; i <= 12; ++i) {
    auto j = rigid_job(i, minutes(i * 37.0), 2 + i % 3, hours(0.5 + 0.25 * (i % 5)));
    if (i % 4 == 0) j.nodes_used = 1;
    jobs.push_back(j);
  }
  jobs.push_back(rigid_job(13, hours(23.5), 2, hours(2.0)));
  hpcsim::Simulator::Config cfg;
  cfg.cluster = small_cluster(8);
  cfg.max_time = days(1.0);
  cfg.carbon_intensity = square_trace(120.0, 480.0, hours(3.0), days(2.0));
  hpcsim::Simulator sim(cfg, jobs);
  GreedyScheduler sched;
  const auto result = sim.run(sched);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const util::TimeSeries intensity = result.carbon_intensity.expand();
  const auto profiles = profile_jobs(result, cfg.cluster);
  std::size_t next = 0;
  for (const auto& rec : result.jobs) {
    if (!rec.completed) continue;
    SCOPED_TRACE(rec.spec.id);
    ASSERT_LT(next, profiles.size());
    const JobCarbonProfile& got = profiles[next++];
    const JobCarbonProfile want = profile_job(rec, cfg.cluster, intensity);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.user, want.user);
    EXPECT_EQ(got.project, want.project);
    EXPECT_EQ(bits(got.energy.joules()), bits(want.energy.joules()));
    EXPECT_EQ(bits(got.carbon.grams()), bits(want.carbon.grams()));
    EXPECT_EQ(bits(got.experienced_intensity), bits(want.experienced_intensity));
    EXPECT_EQ(bits(got.best_case_carbon.grams()), bits(want.best_case_carbon.grams()));
    EXPECT_EQ(bits(got.over_allocation_waste), bits(want.over_allocation_waste));
    EXPECT_EQ(bits(got.car_km), bits(want.car_km));
  }
  EXPECT_EQ(next, profiles.size());
  EXPECT_EQ(profiles.size(), result.jobs.size() - 1);  // job 13 never finished
  EXPECT_TRUE(std::any_of(profiles.begin(), profiles.end(), [](const auto& p) {
    return p.over_allocation_waste > 0.0;
  }));
}

TEST(JobCarbon, AggregateByUserSortsByCarbon) {
  std::vector<hpcsim::JobSpec> jobs;
  for (int i = 1; i <= 8; ++i) {
    auto j = rigid_job(i, minutes(i * 5.0), i <= 4 ? 1 : 4, hours(1.0));
    j.user = i <= 4 ? "alice" : "bob";
    j.project = "shared";
    jobs.push_back(j);
  }
  const auto result = run_jobs(jobs, constant_trace(250.0, days(1.0)), 16);
  const auto profiles = profile_jobs(result, small_cluster(16));
  const auto reports = aggregate_by_user(profiles);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].key, "bob");  // 4-node jobs -> more carbon
  EXPECT_GT(reports[0].carbon.grams(), reports[1].carbon.grams());
  EXPECT_EQ(reports[0].jobs, 4);
  const auto by_project = aggregate_by_project(profiles);
  ASSERT_EQ(by_project.size(), 1u);
  EXPECT_EQ(by_project[0].jobs, 8);
}

TEST(JobCarbon, ReportFormatContainsKeyFigures) {
  const auto result =
      run_jobs({rigid_job(7, seconds(0.0), 2, hours(1.0))}, constant_trace(400.0, days(1.0)));
  const auto p =
      profile_job(result.jobs[0], small_cluster(8), result.carbon_intensity.expand());
  const std::string report = format_job_report(p);
  EXPECT_NE(report.find("Job 7"), std::string::npos);
  EXPECT_NE(report.find("kgCO2e"), std::string::npos);
  EXPECT_NE(report.find("driving a car"), std::string::npos);
  EXPECT_NE(report.find("kWh"), std::string::npos);
}

TEST(JobCarbon, IncompleteJobRejected) {
  hpcsim::JobRecord rec;
  rec.spec = rigid_job(1, seconds(0.0), 2, hours(1.0));
  rec.completed = false;
  EXPECT_THROW((void)profile_job(rec, small_cluster(8), constant_trace(100.0, days(1.0))),
               greenhpc::InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::accounting

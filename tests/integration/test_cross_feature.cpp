// Cross-feature integration: the newer subsystems composed the way a
// production deployment would use them — real-format (SWF) traces through
// the simulator with ledger accounting, facility overheads applied to
// simulator output, and a federation fed from one SWF stream.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "accounting/ledger.hpp"
#include "core/federation.hpp"
#include "facility/facility_model.hpp"
#include "hpcsim/simulator.hpp"
#include "hpcsim/swf_io.hpp"
#include "hpcsim/workload.hpp"
#include "sched/easy_backfill.hpp"
#include "testing/helpers.hpp"

namespace greenhpc {
namespace {

std::vector<hpcsim::JobSpec> swf_round_trip_workload(int count, std::uint64_t seed) {
  hpcsim::WorkloadConfig wl;
  wl.job_count = count;
  wl.span = days(2.0);
  wl.max_job_nodes = 16;
  const auto jobs = hpcsim::WorkloadGenerator(wl, seed).generate();
  std::stringstream buffer;
  hpcsim::save_swf(jobs, buffer);
  return hpcsim::load_swf(buffer).jobs;
}

TEST(CrossFeature, SwfWorkloadThroughSimulatorAndLedger) {
  const auto jobs = swf_round_trip_workload(80, 3);
  carbon::GridModel grid(carbon::Region::Germany, 3);
  const auto trace = grid.generate(seconds(0.0), days(5.0), minutes(30.0));

  hpcsim::Simulator::Config cfg;
  cfg.cluster = greenhpc::testing::small_cluster(32);
  cfg.cluster.enforce_walltime = true;  // production semantics
  cfg.carbon_intensity = trace;
  hpcsim::Simulator sim(cfg, jobs);
  sched::EasyBackfillScheduler sched(true);  // moldable shrink enabled
  const auto result = sim.run(sched);
  // SWF round-trips are rigid with walltime >= runtime at full speed, so
  // everything completes even with enforcement on.
  EXPECT_EQ(result.completed_jobs + result.walltime_kills,
            static_cast<int>(jobs.size()));
  EXPECT_GT(result.completed_jobs, static_cast<int>(jobs.size()) * 9 / 10);

  accounting::ProjectLedger ledger(trace, accounting::PricingPolicy{});
  for (const auto& j : result.jobs) {
    if (!j.completed) continue;
    // Grant lazily on first sight of the project.
    try {
      (void)ledger.account(j.spec.project);
    } catch (const InvalidArgument&) {
      ledger.grant(j.spec.project, 1e6);
    }
    EXPECT_TRUE(ledger.charge(j));
  }
  double billed = 0.0;
  for (const auto& account : ledger.accounts()) billed += account.node_hours_billed;
  EXPECT_GT(billed, 0.0);
}

TEST(CrossFeature, FacilityOverheadOnSimulatorPower) {
  // Run a cluster, then put its *actual* power series through the
  // facility model — PUE applies to the simulated draw, not a constant.
  core::ScenarioConfig cfg;
  cfg.cluster.nodes = 64;
  cfg.region = carbon::Region::Germany;
  cfg.trace_span = days(6.0);
  cfg.workload.job_count = 150;
  cfg.workload.span = days(3.0);
  cfg.workload.max_job_nodes = 32;
  cfg.seed = 9;
  core::ScenarioRunner runner(cfg);
  const auto outcome = runner.run(
      "easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); });

  facility::WeatherModel weather(carbon::Region::Germany, 9);
  const auto temp = weather.generate(seconds(0.0), days(6.0), hours(1.0));
  const auto fac = facility::evaluate_facility(
      outcome.result.system_power.expand(), temp, runner.trace(),
      facility::CoolingModel(facility::CoolingTechnology::WarmWater),
      facility::HeatReuseConfig{});
  EXPECT_NEAR(fac.it_energy.joules(), outcome.result.total_energy.joules(),
              0.01 * outcome.result.total_energy.joules());
  EXPECT_GT(fac.facility_energy.joules(), fac.it_energy.joules());
  EXPECT_LT(fac.net_carbon().grams(), fac.gross_carbon.grams());
}

TEST(CrossFeature, FederationConsumesSwfStream) {
  const auto jobs = swf_round_trip_workload(60, 11);
  core::Federation::Config cfg;
  for (auto [name, region] : {std::pair{"a", carbon::Region::France},
                              std::pair{"b", carbon::Region::Poland}}) {
    core::SiteSpec site;
    site.name = name;
    site.cluster = greenhpc::testing::small_cluster(24);
    site.region = region;
    cfg.sites.push_back(site);
  }
  cfg.trace_span = days(5.0);
  core::Federation fed(cfg);
  const auto rr = fed.run(jobs, core::DispatchPolicy::RoundRobin, [] {
    return std::make_unique<sched::EasyBackfillScheduler>();
  });
  const auto green = fed.run(jobs, core::DispatchPolicy::GreenestNow, [] {
    return std::make_unique<sched::EasyBackfillScheduler>();
  });
  EXPECT_EQ(rr.completed, static_cast<int>(jobs.size()));
  EXPECT_EQ(green.completed, rr.completed);
  EXPECT_LT(green.job_carbon.grams(), rr.job_carbon.grams());
}

}  // namespace
}  // namespace greenhpc

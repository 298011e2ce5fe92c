// EXP-FORE — section 3.1: "carbon intensity prediction can support the
// job scheduler, in particular when the system is setup for long running
// jobs."
//
// Part 1 measures forecaster accuracy (MAPE at several horizons) on the
// reference grid trace; part 2 measures the *policy value* of each
// forecaster by plugging it into the carbon-aware scheduler and comparing
// job carbon against the carbon-blind EASY baseline.

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "carbon/forecast.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "util/parallel.hpp"

int main() {
  using namespace greenhpc;
  using namespace greenhpc::bench;

  // Moderate load in a volatile wind-heavy grid: the regime where
  // forecast-driven shifting has slack to exploit (cf. bench_carbon_sched).
  auto cfg = reference_scenario();
  cfg.workload.job_count = 450;
  cfg.region = carbon::Region::UnitedKingdom;
  core::ScenarioRunner runner(cfg);
  const util::TimeSeries& trace = runner.trace();

  // Part 1: accuracy.
  std::vector<std::shared_ptr<const carbon::Forecaster>> forecasters = {
      std::make_shared<carbon::PersistenceForecaster>(),
      std::make_shared<carbon::MovingAverageForecaster>(hours(24.0)),
      std::make_shared<carbon::HarmonicForecaster>(days(3.0)),
      std::make_shared<carbon::EwmaForecaster>(hours(12.0)),
      std::make_shared<carbon::EnsembleForecaster>(
          std::vector<carbon::EnsembleForecaster::Member>{
              {std::make_shared<carbon::HarmonicForecaster>(days(3.0)), 2.0},
              {std::make_shared<carbon::EwmaForecaster>(hours(12.0)), 1.0}}),
      std::make_shared<carbon::OracleForecaster>(trace),
  };
  util::Table accuracy({"forecaster", "MAPE@1h [%]", "MAPE@6h [%]", "MAPE@12h [%]",
                        "MAPE@24h [%]"});
  // Forecaster x horizon MAPE grid in one parallel sweep (each evaluation
  // walks the whole trace); slots keep table order deterministic.
  const double horizons[4] = {1.0, 6.0, 12.0, 24.0};
  std::vector<std::array<double, 4>> mape(forecasters.size());
  util::parallel_for_chunked(forecasters.size() * 4, 1, [&](std::size_t i) {
    mape[i / 4][i % 4] = carbon::evaluate_mape(*forecasters[i / 4], trace,
                                               days(4.0), hours(horizons[i % 4]));
  });
  for (std::size_t i = 0; i < forecasters.size(); ++i) {
    std::vector<std::string> row = {forecasters[i]->name()};
    for (double m : mape[i]) row.push_back(util::Table::fmt(100.0 * m, 2));
    accuracy.add_row(row);
  }
  std::printf("%s\n", accuracy.str("Forecaster accuracy on the reference grid trace").c_str());

  // Part 2: policy value — the carbon-blind baseline and one carbon-aware
  // run per forecaster, as a single parallel batch.
  std::vector<core::ScenarioRunner::PolicyCase> cases;
  cases.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  for (const auto& f : forecasters) {
    cases.push_back({"carbon-easy(" + f->name() + ")", [&runner, f] {
                       sched::CarbonAwareEasyScheduler::Config c;
                       c.max_hold = hours(24.0);
                       c.lookahead = hours(24.0);
                       return std::make_unique<sched::CarbonAwareEasyScheduler>(c, f);
                     }});
  }
  const std::vector<core::PolicyOutcome> outcomes = runner.run_all(cases);

  const auto& baseline = outcomes[0];
  Carbon baseline_carbon{};
  for (const auto& j : baseline.result.jobs) baseline_carbon += j.carbon;

  util::Table value({"forecaster", "job carbon [t]", "vs easy [%]", "mean wait [h]"});
  value.add_row({"(easy, no forecast)", util::Table::fmt(baseline_carbon.tonnes(), 2), "0.0",
                 util::Table::fmt(baseline.mean_wait_h, 2)});
  for (std::size_t i = 0; i < forecasters.size(); ++i) {
    const auto& outcome = outcomes[i + 1];
    Carbon job_carbon{};
    for (const auto& j : outcome.result.jobs) job_carbon += j.carbon;
    value.add_row({forecasters[i]->name(), util::Table::fmt(job_carbon.tonnes(), 2),
                   util::Table::fmt(100.0 * (job_carbon / baseline_carbon - 1.0), 1),
                   util::Table::fmt(outcome.mean_wait_h, 2)});
  }
  std::printf("%s\n", value.str("Policy value: job carbon under the carbon-aware "
                                "scheduler by forecaster").c_str());
  std::printf("Paper claim check: forecasting supports the scheduler (any real "
              "forecaster beats the carbon-blind baseline; the oracle bounds the "
              "achievable gain).\n");
  return 0;
}

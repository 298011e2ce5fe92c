// Carbon-blind pricing property (hpcsim::price_carbon).
//
// A run whose decisions never read the intensity has the same schedule
// under every trace, and its operational carbon is the per-tick energy
// priced tick by tick. The property: for seeded scenarios under the
// carbon-blind FCFS, EASY and conservative schedulers and the malleable
// decorator over EASY (which sizes its reshapes from the job table), with
// and without node failures (requeue, kill and in-span event ticks), the
// run under trace A priced with trace B equals the run under B bit for
// bit — total_carbon, the per-tick intensity series and the green-energy
// share at B's threshold — across every region, both intensity kinds,
// several trace seeds, an off-grid trace step and a trace cut short of
// the run.
// This is ROADMAP item 7's intensity relation for the carbon-blind
// policies. The negative cases pin what clears carbon_blind: an
// intensity-reading policy, a decorator that reads it, a power-budget
// policy and a degraded feed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "carbon/forecast.hpp"
#include "carbon/grid_model.hpp"
#include "core/scenario.hpp"
#include "hpcsim/simulator.hpp"
#include "obs/metrics.hpp"
#include "resilience/degraded_feed.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/conservative.hpp"
#include "sched/decorators.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"

namespace greenhpc {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Equal runs (bit-equal values, equal counts) are equal series: runs
/// merge on bit equality, so the run list is canonical.
bool same_series(const util::StepSeries& a, const util::StepSeries& b) {
  if (a.size() != b.size() || a.runs().size() != b.runs().size()) return false;
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    if (!same_bits(a.runs()[i].value, b.runs()[i].value) ||
        a.runs()[i].count != b.runs()[i].count) {
      return false;
    }
  }
  return true;
}

struct Scenario {
  std::uint64_t seed;
  int nodes;
  int jobs;
  double span_days;
  bool faults;
};

// gtest prints a parameter into its ctest name; without this it would
// dump the struct's bytes, padding included, which differ between builds.
void PrintTo(const Scenario& s, std::ostream* os) {
  *os << "seed=" << s.seed << " nodes=" << s.nodes << " jobs=" << s.jobs
      << " span_days=" << s.span_days << " faults=" << s.faults;
}

core::ScenarioConfig scenario_config(const Scenario& s) {
  core::ScenarioConfig sc;
  sc.cluster.nodes = s.nodes;
  sc.cluster.node_tdp = watts(500.0);
  sc.cluster.node_idle = watts(110.0);
  sc.cluster.tick = minutes(2.0);
  sc.trace_span = days(s.span_days + 4.0);
  sc.workload.job_count = s.jobs;
  sc.workload.span = days(s.span_days);
  sc.workload.max_job_nodes = s.nodes / 2;
  sc.workload.runtime_mean = hours(2.0);
  sc.workload.node_power_mean = watts(420.0);
  sc.workload.node_power_limit = watts(500.0);
  sc.workload.checkpointable_fraction = 0.5;
  sc.workload.moldable_fraction = 0.2;
  sc.workload.malleable_fraction = 0.2;
  sc.seed = s.seed;
  return sc;
}

hpcsim::Simulator::Config sim_config(const Scenario& s, const core::ScenarioConfig& sc,
                                     util::TimeSeries trace) {
  hpcsim::Simulator::Config cfg;
  cfg.cluster = sc.cluster;
  cfg.carbon_intensity = std::move(trace);
  if (s.faults) {
    for (int k = 0; k < 10; ++k) {
      cfg.faults.events.push_back({hours(2.0 + 5.0 * k), 1 + (k % 2), minutes(90.0)});
    }
    cfg.faults.max_retries = 4;
    cfg.faults.backoff_base = minutes(5.0);
    cfg.faults.victim_seed = s.seed ^ 0x5eedu;
  }
  return cfg;
}

std::unique_ptr<hpcsim::SchedulingPolicy> blind_scheduler(const std::string& name) {
  if (name == "fcfs") return std::make_unique<sched::FcfsScheduler>();
  if (name == "easy") return std::make_unique<sched::EasyBackfillScheduler>();
  if (name == "easy+malleable") {
    return std::make_unique<sched::MalleableDecorator>(
        sched::MalleableDecorator::Config{}, std::make_unique<sched::EasyBackfillScheduler>());
  }
  return std::make_unique<sched::ConservativeBackfillScheduler>();
}

/// Traces of every region and both kinds at one seed, two more seeds of
/// one region, a trace whose 7-minute step is off the 2-minute tick, and
/// one cut to 1.5 days so a run outlasts it (clamped last sample).
std::vector<util::TimeSeries> traces_for(const core::ScenarioConfig& sc) {
  std::vector<util::TimeSeries> out;
  for (const carbon::Region r : carbon::all_regions()) {
    for (const carbon::IntensityKind k :
         {carbon::IntensityKind::Average, carbon::IntensityKind::Marginal}) {
      out.push_back(carbon::GridModel(r, sc.seed + 1)
                        .generate(seconds(0.0), sc.trace_span, sc.trace_step, k));
    }
  }
  for (const std::uint64_t seed : {sc.seed + 2, sc.seed + 3}) {
    out.push_back(carbon::GridModel(carbon::Region::Poland, seed)
                      .generate(seconds(0.0), sc.trace_span, sc.trace_step,
                                carbon::IntensityKind::Marginal));
  }
  out.push_back(carbon::GridModel(carbon::Region::Spain, sc.seed)
                    .generate(seconds(0.0), sc.trace_span, minutes(7.0)));
  out.push_back(carbon::GridModel(carbon::Region::Germany, sc.seed)
                    .generate(seconds(0.0), days(1.5), sc.trace_step));
  return out;
}

class CarbonPricing : public ::testing::TestWithParam<Scenario> {};

TEST_P(CarbonPricing, PricedRunEqualsTheRunUnderTheOtherTraceBitForBit) {
  const Scenario& s = GetParam();
  const core::ScenarioConfig sc = scenario_config(s);
  const core::ScenarioRunner runner(sc);  // the shared job list
  const std::vector<util::TimeSeries> traces = traces_for(sc);
  const obs::Counter& reshapes = obs::Registry::global().counter("sim.reshapes");
  for (const std::string name : {"fcfs", "easy", "conservative", "easy+malleable"}) {
    std::vector<hpcsim::SimulationResult> runs;
    const std::uint64_t reshapes_before = reshapes.value();
    for (const util::TimeSeries& trace : traces) {
      hpcsim::Simulator sim(sim_config(s, sc, trace), runner.jobs_ptr());
      runs.push_back(sim.run(*blind_scheduler(name)));
      ASSERT_TRUE(runs.back().carbon_blind) << name;
    }
    EXPECT_GT(runs[0].completed_jobs, 0) << name;
    if (name == "easy+malleable") {
      EXPECT_GT(reshapes.value(), reshapes_before) << name;
    }
    if (s.faults) {
      EXPECT_GT(runs[0].job_failures, 0) << name;
    }
    for (std::size_t b = 0; b < traces.size(); ++b) {
      // Price from the first run, and from the previous trace's run.
      for (const std::size_t a : {std::size_t{0}, (b + traces.size() - 1) % traces.size()}) {
        const hpcsim::SimulationResult& from = runs[a];
        const hpcsim::SimulationResult& want = runs[b];
        const std::string where = name + ", trace " + std::to_string(a) + " priced with trace " +
                                  std::to_string(b);
        // The schedule is the same under both traces...
        ASSERT_TRUE(same_bits(from.total_energy.joules(), want.total_energy.joules())) << where;
        ASSERT_TRUE(same_series(from.tick_energy, want.tick_energy)) << where;
        // ...and pricing reproduces the carbon accounting of the other run.
        const hpcsim::CarbonPricing priced = hpcsim::price_carbon(from, traces[b]);
        EXPECT_TRUE(same_bits(priced.total_carbon.grams(), want.total_carbon.grams()))
            << where << ": " << priced.total_carbon.grams() << " vs "
            << want.total_carbon.grams();
        EXPECT_TRUE(same_series(priced.carbon_intensity, want.carbon_intensity)) << where;
        const double threshold = core::ScenarioRunner::green_threshold_of(traces[b]);
        EXPECT_TRUE(same_bits(from.green_energy_share(threshold, priced.carbon_intensity),
                              want.green_energy_share(threshold)))
            << where;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& param) {
  return "s" + std::to_string(param.param.seed) + (param.param.faults ? "_faults" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, CarbonPricing,
    ::testing::Values(Scenario{101, 32, 90, 0.5, false}, Scenario{102, 48, 140, 0.5, true},
                      Scenario{103, 16, 30, 3.0, false}, Scenario{104, 16, 30, 3.0, true},
                      Scenario{105, 24, 60, 1.0, true}),
    scenario_name);

// --- What clears carbon_blind ---------------------------------------------

/// The budget a machine without a site cap gets: it still receives the
/// intensity every tick, so its presence alone clears carbon_blind.
class FullPowerBudget final : public hpcsim::PowerBudgetPolicy {
 public:
  [[nodiscard]] Power system_budget(Duration, double,
                                    const hpcsim::ClusterConfig& cluster) override {
    return cluster.max_power();
  }
  [[nodiscard]] std::string name() const override { return "full-power"; }
};

TEST(CarbonPricingRefuses, EveryRunThatCouldHaveReadTheIntensity) {
  const Scenario s{111, 32, 90, 1.0, false};
  const core::ScenarioConfig sc = scenario_config(s);
  const core::ScenarioRunner runner(sc);
  const util::TimeSeries other = carbon::GridModel(carbon::Region::France, 7)
                                     .generate(seconds(0.0), sc.trace_span, sc.trace_step);
  const auto run = [&](hpcsim::SchedulingPolicy& policy, hpcsim::PowerBudgetPolicy* power,
                       hpcsim::IntensityFeed* feed) {
    hpcsim::Simulator::Config cfg = sim_config(s, sc, runner.trace());
    cfg.feed = feed;
    hpcsim::Simulator sim(cfg, runner.jobs_ptr());
    return sim.run(policy, power);
  };

  sched::CarbonAwareEasyScheduler carbon_easy(
      sched::CarbonAwareEasyScheduler::Config{},
      std::make_shared<carbon::PersistenceForecaster>());
  sched::CheckpointDecorator checkpointing(sched::CheckpointDecorator::Config{},
                                           std::make_unique<sched::EasyBackfillScheduler>());
  sched::EasyBackfillScheduler easy;
  FullPowerBudget budget;
  resilience::DegradedFeedConfig fc;
  fc.outage_fraction = 0.3;
  fc.mean_outage = hours(3.0);
  fc.seed = s.seed;
  resilience::DegradedFeed feed(fc, sc.trace_span);

  struct Case {
    const char* what;
    hpcsim::SimulationResult result;
  };
  const Case cases[] = {
      {"carbon-easy", run(carbon_easy, nullptr, nullptr)},
      {"checkpoint decorator over easy", run(checkpointing, nullptr, nullptr)},
      {"a power-budget policy", run(easy, &budget, nullptr)},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.result.carbon_blind) << c.what;
    EXPECT_THROW((void)hpcsim::price_carbon(c.result, other), InvalidArgument) << c.what;
  }
  sched::EasyBackfillScheduler easy_behind_a_feed;
  const hpcsim::SimulationResult fed = run(easy_behind_a_feed, nullptr, &feed);
  EXPECT_FALSE(fed.carbon_blind);
  EXPECT_THROW((void)hpcsim::price_carbon(fed, other), InvalidArgument);

  // The same easy scheduler with none of these is blind, and a result
  // nobody simulated never is.
  sched::EasyBackfillScheduler plain;
  EXPECT_TRUE(run(plain, nullptr, nullptr).carbon_blind);
  EXPECT_THROW((void)hpcsim::price_carbon(hpcsim::SimulationResult{}, other), InvalidArgument);
}

}  // namespace
}  // namespace greenhpc

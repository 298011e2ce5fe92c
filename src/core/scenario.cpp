#include "core/scenario.hpp"

#include "carbon/green_periods.hpp"
#include "carbon/trace_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace greenhpc::core {

ScenarioRunner::ScenarioRunner(ScenarioConfig config)
    : cfg_(std::move(config)),
      trace_(carbon::TraceCache::global().get(cfg_.region, cfg_.intensity_kind,
                                              cfg_.seed, seconds(0.0), cfg_.trace_span,
                                              cfg_.trace_step)),
      jobs_(hpcsim::WorkloadCache::global().get(cfg_.workload, cfg_.seed)) {
  GREENHPC_REQUIRE(cfg_.trace_span >= cfg_.workload.span,
                   "trace must cover the workload span");
  green_threshold_ = green_threshold_of(*trace_);
}

double ScenarioRunner::green_threshold_of(const util::TimeSeries& trace) {
  // 0.40 matches the carbon-aware scheduler's default green gate, so the
  // green-energy-share metric and the policies classify ticks identically.
  return carbon::green_threshold(trace, 0.40);
}

PolicyOutcome ScenarioRunner::run(const std::string& label, const SchedulerFactory& sched,
                                  const PowerPolicyFactory& power) const {
  GREENHPC_REQUIRE(static_cast<bool>(sched), "scheduler factory required");
  GREENHPC_TRACE_SPAN("scenario.case");
  static obs::Counter& cases = obs::Registry::global().counter("scenario.cases");
  cases.add();
  auto scheduler = sched();
  std::unique_ptr<hpcsim::PowerBudgetPolicy> power_policy;
  if (power) power_policy = power();

  hpcsim::Simulator::Config sim_cfg;
  sim_cfg.cluster = cfg_.cluster;
  sim_cfg.carbon_intensity = trace_;  // shared, zero-copy
  hpcsim::Simulator sim(sim_cfg, jobs_);

  PolicyOutcome out;
  out.scheduler = label.empty() ? scheduler->name() : label;
  out.power_policy = power_policy ? power_policy->name() : "unconstrained";
  out.result = sim.run(*scheduler, power_policy.get());

  out.total_carbon_t = out.result.total_carbon.tonnes();
  out.total_energy_mwh = out.result.total_energy.megawatt_hours();
  out.carbon_per_node_hour_g = out.result.carbon_per_node_hour();
  out.mean_wait_h = out.result.mean_wait_hours();
  out.mean_bounded_slowdown = out.result.mean_bounded_slowdown();
  out.utilization = out.result.utilization(cfg_.cluster);
  out.green_energy_share = out.result.green_energy_share(green_threshold_);
  out.completed = out.result.completed_jobs;
  return out;
}

std::vector<PolicyOutcome> ScenarioRunner::run_all(
    const std::vector<PolicyCase>& cases) const {
  std::vector<PolicyOutcome> outcomes(cases.size());
  // Grain 1: each case is a whole simulation, orders of magnitude heavier
  // than a chunk dispatch. The chunked path's serial fallback keeps small
  // sweeps on single-worker pools at exactly serial cost.
  util::parallel_for_chunked(cases.size(), 1, [&](std::size_t i) {
    outcomes[i] = run(cases[i].label, cases[i].scheduler, cases[i].power);
  });
  return outcomes;
}

}  // namespace greenhpc::core

#pragma once
// Scenario runner: the shared harness behind the operational experiments
// (sections 3.1-3.4) and the examples. One scenario fixes a cluster, a
// grid region/trace and a workload; policies are then compared on
// identical inputs.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "carbon/grid_model.hpp"
#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"

namespace greenhpc::core {

struct ScenarioConfig {
  hpcsim::ClusterConfig cluster;
  carbon::Region region = carbon::Region::Germany;
  carbon::IntensityKind intensity_kind = carbon::IntensityKind::Average;
  /// Trace length; should exceed the workload span by the expected drain.
  Duration trace_span = days(10.0);
  Duration trace_step = minutes(15.0);
  hpcsim::WorkloadConfig workload;
  std::uint64_t seed = 42;
};

/// Factory signatures: each run gets fresh policy instances.
using SchedulerFactory = std::function<std::unique_ptr<hpcsim::SchedulingPolicy>()>;
using PowerPolicyFactory = std::function<std::unique_ptr<hpcsim::PowerBudgetPolicy>()>;

/// One policy combination's outcome with the derived comparison metrics.
struct PolicyOutcome {
  std::string scheduler;
  std::string power_policy;
  hpcsim::SimulationResult result;

  // Derived (filled by the runner):
  double total_carbon_t = 0.0;
  double total_energy_mwh = 0.0;
  double carbon_per_node_hour_g = 0.0;
  double mean_wait_h = 0.0;
  double mean_bounded_slowdown = 0.0;
  double utilization = 0.0;
  double green_energy_share = 0.0;
  int completed = 0;
};

class ScenarioRunner {
 public:
  /// Resolves the scenario's assets through the process-wide caches
  /// (carbon::TraceCache / hpcsim::WorkloadCache): runners for the same
  /// (region, kind, seed, span, step) and (workload, seed) share one
  /// immutable trace and one immutable job list — construction after the
  /// first is cache hits plus the green-threshold percentile.
  explicit ScenarioRunner(ScenarioConfig config);

  /// The shared intensity trace of this scenario.
  [[nodiscard]] const util::TimeSeries& trace() const { return *trace_; }
  /// The shared job list of this scenario.
  [[nodiscard]] const std::vector<hpcsim::JobSpec>& jobs() const { return *jobs_; }
  /// Shared handles to the scenario assets — pass these into
  /// Simulator::Config / Simulator for zero-copy runs.
  [[nodiscard]] const std::shared_ptr<const util::TimeSeries>& trace_ptr() const {
    return trace_;
  }
  [[nodiscard]] const std::shared_ptr<const std::vector<hpcsim::JobSpec>>& jobs_ptr()
      const {
    return jobs_;
  }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  /// Green threshold (40th percentile of the trace, matching the default
  /// carbon-aware scheduler gate) used for the green-energy-share metric.
  [[nodiscard]] double green_threshold() const { return green_threshold_; }
  /// The green threshold of any intensity trace, as green_threshold()
  /// computes it for the scenario's own.
  [[nodiscard]] static double green_threshold_of(const util::TimeSeries& trace);

  /// Run one policy combination on the shared inputs.
  [[nodiscard]] PolicyOutcome run(const std::string& label, const SchedulerFactory& sched,
                                  const PowerPolicyFactory& power = nullptr) const;

  /// One labelled policy combination for a batch run.
  struct PolicyCase {
    std::string label;
    SchedulerFactory scheduler;
    PowerPolicyFactory power = nullptr;
  };

  /// Run every case on the shared inputs, fanned out over the global
  /// thread pool. Each case is fully independent (fresh policy instances
  /// and its own Simulator over the shared trace/jobs) and writes into a
  /// preallocated slot, so the returned vector matches a serial
  /// case-by-case run bit for bit regardless of thread count. Factories
  /// are invoked concurrently and must be safe to call from any thread.
  [[nodiscard]] std::vector<PolicyOutcome> run_all(
      const std::vector<PolicyCase>& cases) const;

 private:
  ScenarioConfig cfg_;
  std::shared_ptr<const util::TimeSeries> trace_;
  std::shared_ptr<const std::vector<hpcsim::JobSpec>> jobs_;
  double green_threshold_ = 0.0;
};

}  // namespace greenhpc::core

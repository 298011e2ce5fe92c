#pragma once
// Simulation outputs and the summary metrics the section-3 experiments
// report.

#include <string>
#include <vector>

#include "hpcsim/cluster.hpp"
#include "hpcsim/job.hpp"
#include "util/step_series.hpp"
#include "util/units.hpp"

namespace greenhpc::hpcsim {

/// Final record of one job after simulation.
struct JobRecord {
  JobSpec spec;
  bool completed = false;
  bool killed = false;  ///< terminated at its walltime limit
  bool failed = false;  ///< abandoned after exhausting the failure-retry budget
  Duration submit;
  Duration start;
  Duration finish;
  int suspend_count = 0;
  int checkpoint_count = 0;  ///< in-place checkpoints written
  int failure_count = 0;     ///< node-failure kills suffered
  Energy energy;
  Carbon carbon;

  [[nodiscard]] Duration wait() const { return start - submit; }
  [[nodiscard]] Duration turnaround() const { return finish - submit; }
  /// Bounded slowdown with the customary 10-minute bound.
  [[nodiscard]] double bounded_slowdown() const;
};

/// Complete result of one simulation run.
struct SimulationResult {
  std::vector<JobRecord> jobs;
  // Per-tick outputs, run-length on the tick grid (expand() for samples).
  util::StepSeries system_power;     ///< total draw per tick (W): tick_energy / tick
  util::StepSeries power_budget;     ///< budget in force per tick (W)
  util::StepSeries carbon_intensity; ///< intensity per tick (g/kWh)
  util::StepSeries busy_nodes;       ///< allocated nodes per tick
  /// Energy each tick added to total_energy (J): the addend price_carbon
  /// needs, which system_power times the tick does not give back exactly.
  util::StepSeries tick_energy;

  Duration makespan;                 ///< last finish time
  Power idle_floor;                  ///< draw with every node idle (cluster constant)
  Energy total_energy;               ///< all nodes, incl. idle draw
  Carbon total_carbon;               ///< operational carbon of total_energy
  Energy idle_energy;                ///< idle-node share of total_energy
  Carbon idle_carbon;
  int completed_jobs = 0;
  /// Jobs terminated by walltime enforcement.
  int walltime_kills = 0;
  /// Ticks in which even the floor power cap could not satisfy the budget.
  int budget_violations = 0;

  // --- resilience metrics (all zero without fault injection) ---
  /// Individual node-down events applied.
  int node_failures = 0;
  /// Job kills caused by node failures (each may retry).
  int job_failures = 0;
  /// Jobs abandoned after exhausting their retry budget.
  int jobs_failed = 0;
  /// In-place checkpoints written across all jobs.
  int checkpoints_taken = 0;
  /// Natural-size node-seconds of progress destroyed by failures.
  double lost_node_seconds = 0.0;
  /// Natural-size node-seconds spent writing checkpoints (overhead).
  double checkpoint_node_seconds = 0.0;
  /// Energy consumed by work that a failure later destroyed.
  Energy wasted_energy;
  /// Carbon emitted for that destroyed work — emissions with nothing to
  /// show for them, the quantity checkpointing exists to bound.
  Carbon wasted_carbon;

  /// True when no decision of the run could have read the carbon
  /// intensity: the scheduling policy never called one of the view's
  /// intensity accessors (its job table holds no energy or carbon), no
  /// power-budget policy ran and no feed was configured. Observed by the
  /// simulator, not declared by the policy, so it holds through any
  /// decorator. The schedule of such a run is the same under every
  /// trace, and price_carbon reprices it exactly.
  bool carbon_blind = false;

  /// Node-seconds allocated / (nodes * makespan).
  [[nodiscard]] double utilization(const ClusterConfig& cluster) const;
  /// Mean wait over completed jobs, hours.
  [[nodiscard]] double mean_wait_hours() const;
  /// Mean bounded slowdown over completed jobs.
  [[nodiscard]] double mean_bounded_slowdown() const;
  /// Completed work throughput: completed node-seconds per wall-clock hour.
  [[nodiscard]] double node_hours_completed() const;
  /// Carbon per unit of delivered work (g per completed node-hour).
  [[nodiscard]] double carbon_per_node_hour() const;
  /// Share of *job-attributable* energy (system draw above the all-idle
  /// floor) consumed while intensity was at or below the given threshold.
  /// Subtracting the idle floor keeps the metric sensitive to scheduling
  /// decisions even on lightly loaded systems.
  [[nodiscard]] double green_energy_share(double threshold_g_per_kwh) const;
  /// The same share with the per-tick intensity taken from `intensity`
  /// (same tick grid) instead of carbon_intensity — e.g. a series
  /// price_carbon produced for another trace.
  [[nodiscard]] double green_energy_share(double threshold_g_per_kwh,
                                          const util::StepSeries& intensity) const;
  /// Delivered node-seconds of the busy-node series (allocation time).
  [[nodiscard]] double busy_node_seconds() const;
  /// Goodput: node-seconds of *retained completed work* (nodes_used x
  /// runtime of completed jobs) over all busy node-seconds delivered.
  /// Failures and checkpoint overhead burn allocation without retained
  /// work, so this is the headline graceful-degradation metric.
  [[nodiscard]] double goodput_fraction() const;
  /// Share of delivered busy node-seconds spent writing checkpoints.
  [[nodiscard]] double checkpoint_overhead_share() const;
  /// Node-hours of progress destroyed by failures.
  [[nodiscard]] double lost_node_hours() const { return lost_node_seconds / 3600.0; }
};

/// The carbon accounting of a carbon-blind run under another trace.
struct CarbonPricing {
  Carbon total_carbon;               ///< as SimulationResult::total_carbon
  util::StepSeries carbon_intensity; ///< as SimulationResult::carbon_intensity
};

/// The total_carbon and per-tick carbon_intensity the simulator would
/// have produced had `result`'s run used `trace` as its intensity trace:
/// bit for bit, because the schedule of a carbon-blind run does not
/// depend on the trace and the simulator adds exactly one
/// grams_co2(E_t / 3.6e6 * ci_t) per tick, in tick order. Walks the
/// tick_energy runs against the trace's segments as the simulator does:
/// one sample per segment, one addition per tick, `now += tick`. Does
/// not recompute idle_carbon, wasted_carbon or per-job carbon. Throws
/// InvalidArgument for a result that is not carbon_blind or an empty
/// trace.
[[nodiscard]] CarbonPricing price_carbon(const SimulationResult& result,
                                         const util::TimeSeries& trace);

}  // namespace greenhpc::hpcsim

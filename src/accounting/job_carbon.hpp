#pragma once
// HPC job carbon profiles (paper section 3.4): "it is necessary to extend
// operational data analytics tools ... to be able to quantify and
// aggregate carbon emissions data derived from submitted HPC jobs; only
// then a comprehensive HPC job carbon profile can be established and
// integrated into job reports ... the carbon footprint data can also be
// presented using analogies that resonate with typical HPC system users
// [such as] the carbon produced by driving a car".

#include <string>
#include <vector>

#include "hpcsim/result.hpp"
#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::accounting {

/// Average emission of a European passenger car (g CO2e per km) used for
/// the user-facing analogy.
inline constexpr double kCarGramsPerKm = 120.0;

/// The per-job carbon profile attached to a job report.
struct JobCarbonProfile {
  hpcsim::JobId id = 0;
  std::string user;
  std::string project;
  Energy energy;
  Carbon carbon;
  /// Mean intensity the job actually experienced (g/kWh).
  double experienced_intensity = 0.0;
  /// Carbon the same energy would have emitted in the greenest windows of
  /// the trace (10th-percentile intensity) — the user's improvement bound.
  Carbon best_case_carbon;
  /// Share of the job's energy wasted by holding more nodes than used
  /// (the over-allocation behaviour the paper observed on SuperMUC-NG).
  double over_allocation_waste = 0.0;
  /// The analogy: km of car driving with the same emissions.
  double car_km = 0.0;

  /// Reduction available from green-period timing alone.
  [[nodiscard]] Carbon timing_savings_potential() const {
    return carbon - best_case_carbon;
  }
};

/// Profile one completed job against the intensity trace it ran under.
[[nodiscard]] JobCarbonProfile profile_job(const hpcsim::JobRecord& record,
                                           const hpcsim::ClusterConfig& cluster,
                                           const util::TimeSeries& intensity);

/// Profile all completed jobs of a simulation result against its
/// per-tick intensity; field for field what profile_job returns for each
/// job given result.carbon_intensity.expand().
[[nodiscard]] std::vector<JobCarbonProfile> profile_jobs(
    const hpcsim::SimulationResult& result, const hpcsim::ClusterConfig& cluster);

/// Aggregated per-user (or per-project) accounting report.
struct UsageReport {
  std::string key;           ///< user or project name
  int jobs = 0;
  Energy energy;
  Carbon carbon;
  Carbon timing_savings_potential;
  double mean_over_allocation_waste = 0.0;
  double car_km = 0.0;
};

/// Group profiles by user, descending by carbon.
[[nodiscard]] std::vector<UsageReport> aggregate_by_user(
    const std::vector<JobCarbonProfile>& profiles);
/// Group profiles by project, descending by carbon.
[[nodiscard]] std::vector<UsageReport> aggregate_by_project(
    const std::vector<JobCarbonProfile>& profiles);

/// Human-readable per-job report block (what the RJMS would mail the user).
[[nodiscard]] std::string format_job_report(const JobCarbonProfile& profile);

}  // namespace greenhpc::accounting

#include "accounting/job_carbon.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace greenhpc::accounting {

namespace {
/// The trace's greenest-window intensity (10th percentile): the
/// best-case bound every job of one trace shares.
double green_intensity(const util::TimeSeries& intensity) {
  GREENHPC_REQUIRE(!intensity.empty(), "intensity trace required");
  return util::percentile(intensity.values(), 0.10);
}

JobCarbonProfile profile_with_green_ci(const hpcsim::JobRecord& record,
                                       const hpcsim::ClusterConfig& cluster,
                                       double green_ci) {
  JobCarbonProfile p;
  p.id = record.spec.id;
  p.user = record.spec.user;
  p.project = record.spec.project;
  p.energy = record.energy;
  p.carbon = record.carbon;

  const double kwh = record.energy.kilowatt_hours();
  p.experienced_intensity = kwh > 0.0 ? record.carbon.grams() / kwh : 0.0;

  p.best_case_carbon = grams_co2(kwh * green_ci);
  // If the job happened to run greener than the 10th percentile already,
  // there is nothing left to save.
  if (p.best_case_carbon > p.carbon) p.best_case_carbon = p.carbon;

  const int extra = record.spec.nodes_requested - record.spec.nodes_used;
  if (extra > 0) {
    const double busy_w = static_cast<double>(record.spec.nodes_used) *
                          record.spec.node_power.watts();
    const double waste_w = static_cast<double>(extra) * cluster.node_idle.watts();
    p.over_allocation_waste = waste_w / (busy_w + waste_w);
  }
  p.car_km = record.carbon.grams() / kCarGramsPerKm;
  return p;
}
}  // namespace

JobCarbonProfile profile_job(const hpcsim::JobRecord& record,
                             const hpcsim::ClusterConfig& cluster,
                             const util::TimeSeries& intensity) {
  GREENHPC_REQUIRE(record.completed, "can only profile completed jobs");
  return profile_with_green_ci(record, cluster, green_intensity(intensity));
}

std::vector<JobCarbonProfile> profile_jobs(const hpcsim::SimulationResult& result,
                                           const hpcsim::ClusterConfig& cluster) {
  std::vector<JobCarbonProfile> out;
  out.reserve(result.jobs.size());
  // One percentile over the expanded samples serves every job; it is
  // taken only if some job completed, as the per-job call would.
  std::optional<double> green_ci;
  for (const auto& rec : result.jobs) {
    if (!rec.completed) continue;
    if (!green_ci) green_ci = green_intensity(result.carbon_intensity.expand());
    out.push_back(profile_with_green_ci(rec, cluster, *green_ci));
  }
  return out;
}

namespace {
std::vector<UsageReport> aggregate_by(
    const std::vector<JobCarbonProfile>& profiles,
    const std::function<const std::string&(const JobCarbonProfile&)>& key_of) {
  std::map<std::string, UsageReport> grouped;
  for (const auto& p : profiles) {
    UsageReport& r = grouped[key_of(p)];
    r.key = key_of(p);
    ++r.jobs;
    r.energy += p.energy;
    r.carbon += p.carbon;
    r.timing_savings_potential += p.timing_savings_potential();
    r.mean_over_allocation_waste += p.over_allocation_waste;
    r.car_km += p.car_km;
  }
  std::vector<UsageReport> out;
  out.reserve(grouped.size());
  for (auto& [_, r] : grouped) {
    if (r.jobs > 0) r.mean_over_allocation_waste /= static_cast<double>(r.jobs);
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(), [](const UsageReport& a, const UsageReport& b) {
    return a.carbon > b.carbon;
  });
  return out;
}
}  // namespace

std::vector<UsageReport> aggregate_by_user(const std::vector<JobCarbonProfile>& profiles) {
  return aggregate_by(
      profiles, [](const JobCarbonProfile& p) -> const std::string& { return p.user; });
}

std::vector<UsageReport> aggregate_by_project(
    const std::vector<JobCarbonProfile>& profiles) {
  return aggregate_by(
      profiles, [](const JobCarbonProfile& p) -> const std::string& { return p.project; });
}

std::string format_job_report(const JobCarbonProfile& p) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "Job " << p.id << " (" << p.user << "/" << p.project << ")\n"
     << "  energy:           " << p.energy.kilowatt_hours() << " kWh\n"
     << "  carbon footprint: " << p.carbon.kilograms() << " kgCO2e"
     << " (grid intensity experienced: " << p.experienced_intensity << " g/kWh)\n"
     << "  equivalent to driving a car " << p.car_km << " km\n"
     << "  running in the greenest windows would have emitted "
     << p.best_case_carbon.kilograms() << " kgCO2e ("
     << (p.carbon.grams() > 0.0
             ? 100.0 * p.timing_savings_potential().grams() / p.carbon.grams()
             : 0.0)
     << "% less)\n";
  if (p.over_allocation_waste > 0.0) {
    os << "  " << 100.0 * p.over_allocation_waste
       << "% of this footprint came from allocated-but-unused nodes\n";
  }
  return os.str();
}

}  // namespace greenhpc::accounting

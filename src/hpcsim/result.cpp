#include "hpcsim/result.hpp"

#include <algorithm>

#include "hpcsim/cluster.hpp"
#include "util/error.hpp"

namespace greenhpc::hpcsim {

double JobRecord::bounded_slowdown() const {
  constexpr double kBoundSeconds = 600.0;
  const double denom = std::max(spec.runtime.seconds(), kBoundSeconds);
  return std::max(1.0, turnaround().seconds() / denom);
}

double SimulationResult::utilization(const ClusterConfig& cluster) const {
  if (makespan.seconds() <= 0.0 || busy_nodes.empty()) return 0.0;
  const double node_seconds = busy_nodes.integrate();
  return node_seconds / (static_cast<double>(cluster.nodes) * makespan.seconds());
}

double SimulationResult::mean_wait_hours() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& j : jobs) {
    if (!j.completed) continue;
    total += j.wait().hours();
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

double SimulationResult::mean_bounded_slowdown() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& j : jobs) {
    if (!j.completed) continue;
    total += j.bounded_slowdown();
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

double SimulationResult::node_hours_completed() const {
  double node_hours = 0.0;
  for (const auto& j : jobs) {
    if (!j.completed) continue;
    node_hours += static_cast<double>(j.spec.nodes_used) * j.spec.runtime.hours();
  }
  return node_hours;
}

double SimulationResult::carbon_per_node_hour() const {
  const double nh = node_hours_completed();
  return nh > 0.0 ? total_carbon.grams() / nh : 0.0;
}

double SimulationResult::busy_node_seconds() const {
  return busy_nodes.integrate();
}

double SimulationResult::goodput_fraction() const {
  const double delivered = busy_node_seconds();
  if (delivered <= 0.0) return 0.0;
  double retained = 0.0;
  for (const auto& j : jobs) {
    if (!j.completed) continue;
    retained += static_cast<double>(j.spec.nodes_used) * j.spec.runtime.seconds();
  }
  return std::min(1.0, retained / delivered);
}

double SimulationResult::checkpoint_overhead_share() const {
  const double delivered = busy_node_seconds();
  return delivered > 0.0 ? checkpoint_node_seconds / delivered : 0.0;
}

double SimulationResult::green_energy_share(double threshold_g_per_kwh) const {
  return green_energy_share(threshold_g_per_kwh, carbon_intensity);
}

double SimulationResult::green_energy_share(double threshold_g_per_kwh,
                                            const util::StepSeries& intensity) const {
  if (system_power.empty() || intensity.empty()) return 0.0;
  double green = 0.0;
  double total = 0.0;
  // Walk both run lists over their common ticks. Where both runs hold,
  // every tick adds the same draw, so the per-tick additions are made in
  // tick order exactly as over flat samples.
  const auto power = system_power.runs();
  const auto ci = intensity.runs();
  std::size_t ticks_left = std::min(system_power.size(), intensity.size());
  std::size_t p = 0;
  std::size_t c = 0;
  std::size_t p_left = power[0].count;
  std::size_t c_left = ci[0].count;
  while (ticks_left > 0) {
    const std::size_t n = std::min({p_left, c_left, ticks_left});
    // Per-tick mean draw above the idle floor; the constant step cancels.
    const double e = std::max(0.0, power[p].value - idle_floor.watts());
    const bool green_tick = ci[c].value <= threshold_g_per_kwh;
    for (std::size_t i = 0; i < n; ++i) {
      total += e;
      if (green_tick) green += e;
    }
    ticks_left -= n;
    p_left -= n;
    c_left -= n;
    if (p_left == 0 && ++p < power.size()) p_left = power[p].count;
    if (c_left == 0 && ++c < ci.size()) c_left = ci[c].count;
  }
  return total > 0.0 ? green / total : 0.0;
}

CarbonPricing price_carbon(const SimulationResult& result, const util::TimeSeries& trace) {
  GREENHPC_REQUIRE(result.carbon_blind,
                   "price_carbon needs a carbon-blind run: its schedule may "
                   "depend on the intensity");
  GREENHPC_REQUIRE(!trace.empty(), "price_carbon needs a non-empty trace");
  const Duration tick = result.tick_energy.step();
  CarbonPricing out{.total_carbon = {},
                    .carbon_intensity = util::StepSeries(result.tick_energy.start(), tick)};
  util::TimeSeries::Cursor cursor;
  Duration now = result.tick_energy.start();
  Duration seg_end = now;
  double ci = 0.0;
  for (const util::StepSeries::Run& run : result.tick_energy.runs()) {
    const double carbon_per_ci = run.value / 3.6e6;
    std::size_t left = run.count;
    while (left > 0) {
      if (now >= seg_end) {
        ci = trace.sample_at_clamped(now, cursor);
        seg_end = trace.segment_end(now);
      }
      // The ticks of this run inside the current segment: one addition
      // each, in tick order, exactly as the simulator made them.
      std::size_t m = 0;
      do {
        out.total_carbon += grams_co2(carbon_per_ci * ci);
        now += tick;
        ++m;
      } while (m < left && now < seg_end);
      out.carbon_intensity.append_fill(m, ci);
      left -= m;
    }
  }
  return out;
}

}  // namespace greenhpc::hpcsim

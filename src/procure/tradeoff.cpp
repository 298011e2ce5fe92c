#include "procure/tradeoff.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace greenhpc::procure {

TradeoffPoint evaluate_split(const ProcurementOptimizer& optimizer,
                             const TradeoffConfig& config, double embodied_fraction) {
  GREENHPC_REQUIRE(embodied_fraction > 0.0 && embodied_fraction < 1.0,
                   "embodied fraction must be in (0,1)");
  GREENHPC_REQUIRE(config.power_elasticity > 0.0 && config.power_elasticity <= 1.0,
                   "power elasticity must be in (0,1]");
  TradeoffPoint point;
  point.embodied_fraction = embodied_fraction;

  ProcurementConstraints constraints = config.base;
  constraints.embodied_budget = config.total_budget * embodied_fraction;
  point.plan = optimizer.optimize(constraints);
  point.procured_pflops = point.plan.perf_tflops(optimizer.catalog()) / 1000.0;

  // Operational budget -> sustainable average power over the lifetime.
  const Carbon op_budget = config.total_budget * (1.0 - embodied_fraction);
  const double kwh_allowed = op_budget.grams() / config.grid.grams_per_kwh();
  const double hours_of_life = config.lifetime.hours();
  point.sustainable_power = kilowatts(kwh_allowed / hours_of_life);

  const Power system_power = point.plan.power(optimizer.catalog());
  const double u =
      system_power.watts() > 0.0
          ? std::min(1.0, point.sustainable_power.watts() / system_power.watts())
          : 0.0;
  point.delivered_pflops =
      point.procured_pflops * std::pow(u, config.power_elasticity);
  return point;
}

std::vector<TradeoffPoint> sweep_budget_split(const ProcurementOptimizer& optimizer,
                                              const TradeoffConfig& config, int steps) {
  GREENHPC_REQUIRE(steps >= 3, "sweep needs at least three steps");
  std::vector<TradeoffPoint> sweep(static_cast<std::size_t>(steps));
  util::parallel_for_chunked(sweep.size(), 1, [&](std::size_t i) {
    const double x = static_cast<double>(i + 1) / static_cast<double>(steps + 1);
    sweep[i] = evaluate_split(optimizer, config, x);
  });
  return sweep;
}

const TradeoffPoint& best_split(const std::vector<TradeoffPoint>& sweep) {
  GREENHPC_REQUIRE(!sweep.empty(), "sweep must not be empty");
  return *std::max_element(sweep.begin(), sweep.end(),
                           [](const TradeoffPoint& a, const TradeoffPoint& b) {
                             return a.delivered_pflops < b.delivered_pflops;
                           });
}

}  // namespace greenhpc::procure

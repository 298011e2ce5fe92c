#include "embodied/dse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace greenhpc::embodied {

namespace {
// Newer nodes: smaller cores, lower dynamic energy, but see act_model.cpp —
// higher embodied carbon per area. Core-area scaling flattens toward the
// leading edge (SRAM and analog stop shrinking), so embodied carbon *per
// core* is U-shaped across nodes — the tension behind section 2.1's
// grid-dependent optimal node. Leakage bottoms out around 7nm and creeps
// back up (thin-oxide leakage), matching industry characterization.
//            core_mm2 uncore_mm2 dyn@1GHz  f_exp  static  f_max
constexpr CoreTech kTech[] = {
    /* N28 */ {4.50, 42.0, 1.00, 2.2, 0.30, 3.2},
    /* N14 */ {2.80, 34.0, 0.66, 2.2, 0.24, 3.6},
    /* N10 */ {2.30, 30.0, 0.54, 2.2, 0.22, 3.8},
    /* N7  */ {1.90, 26.0, 0.44, 2.2, 0.20, 4.0},
    /* N5  */ {1.60, 24.0, 0.37, 2.2, 0.21, 4.1},
    /* N3  */ {1.40, 22.0, 0.32, 2.2, 0.23, 4.2},
};

constexpr const char* kObjectiveNames[] = {"delay", "energy", "EDP",
                                           "total-carbon", "CDP", "CEP"};
}  // namespace

const CoreTech& core_tech(ProcessNode node) {
  return kTech[static_cast<std::size_t>(node)];
}

const char* objective_name(Objective o) {
  return kObjectiveNames[static_cast<std::size_t>(o)];
}

double DesignEvaluation::objective_value(Objective o) const {
  switch (o) {
    case Objective::Delay: return metrics.delay.seconds();
    case Objective::Energy: return metrics.energy.joules();
    case Objective::Edp: return metrics.edp();
    case Objective::TotalCarbon: return metrics.total().grams();
    case Objective::Cdp: return metrics.cdp();
    case Objective::Cep: return metrics.cep();
  }
  return 0.0;
}

DesignSpaceExplorer::DesignSpaceExplorer(const ActModel& model, Config config)
    : model_(&model), cfg_(config) {
  GREENHPC_REQUIRE(cfg_.workload.total_ops > 0.0, "workload must have positive work");
  GREENHPC_REQUIRE(cfg_.workload.parallel_fraction > 0.0 && cfg_.workload.parallel_fraction <= 1.0,
                   "parallel fraction must be in (0,1]");
  GREENHPC_REQUIRE(cfg_.duty_cycle > 0.0 && cfg_.duty_cycle <= 1.0,
                   "duty cycle must be in (0,1]");
}

DesignEvaluation DesignSpaceExplorer::evaluate(const DesignPoint& point,
                                               CarbonIntensity grid) const {
  GREENHPC_REQUIRE(point.cores >= 1, "design needs at least one core");
  GREENHPC_REQUIRE(point.chiplet_count >= 1 && point.cores % point.chiplet_count == 0,
                   "cores must divide evenly across chiplets");
  const CoreTech& tech = core_tech(point.node);
  GREENHPC_REQUIRE(point.freq_ghz > 0.0 && point.freq_ghz <= tech.max_freq_ghz,
                   "frequency outside the node's range");

  // --- performance: Amdahl speedup over a single-core baseline ---
  const WorkloadModel& w = cfg_.workload;
  const double core_rate = w.ops_per_cycle * point.freq_ghz * 1e9;  // ops/s
  const double f = w.parallel_fraction;
  const double speedup = 1.0 / ((1.0 - f) + f / static_cast<double>(point.cores));
  const Duration delay = seconds(w.total_ops / (core_rate * speedup));

  // --- power: all cores powered, dynamic part scales with utilization ---
  const double util = speedup / static_cast<double>(point.cores);
  const double dyn_per_core =
      tech.dyn_watt_at_1ghz * std::pow(point.freq_ghz, tech.freq_exponent);
  const Power power = watts(static_cast<double>(point.cores) *
                            (tech.static_watt + dyn_per_core * util));
  const Energy energy = power * delay;

  // --- embodied: the section-2.1 packaging trade-off. The uncore (memory
  //     controllers, IO, fabric) is partitioned across chiplets; splitting
  //     costs a die-to-die PHY per chiplet plus extra bonding, but small
  //     dies yield far better — so chiplets pay off for large designs on
  //     defect-prone nodes and lose for small ones. ---
  constexpr double kD2dPhyMm2 = 6.0;
  const double cores_per_die =
      static_cast<double>(point.cores) / static_cast<double>(point.chiplet_count);
  const double die_area =
      cores_per_die * tech.core_area_mm2 +
      tech.uncore_area_mm2 / static_cast<double>(point.chiplet_count) +
      (point.chiplet_count > 1 ? kD2dPhyMm2 : 0.0);
  Carbon device = model_->logic_die(die_area, point.node) *
                  static_cast<double>(point.chiplet_count);
  const double total_silicon = die_area * point.chiplet_count;
  const double substrate_cm2 = 6.0 + 0.02 * total_silicon;
  device += model_->packaging(point.chiplet_count, substrate_cm2, 0.0);

  DesignEvaluation ev;
  ev.point = point;
  ev.device_embodied = device;
  ev.power = power;
  ev.metrics.delay = delay;
  ev.metrics.energy = energy;
  ev.metrics.operational = operational_carbon(power, delay, grid);
  ev.metrics.embodied =
      amortized_embodied(device, delay, cfg_.device_lifetime * cfg_.duty_cycle);
  return ev;
}

std::vector<DesignPoint> DesignSpaceExplorer::default_grid() const {
  std::vector<DesignPoint> grid;
  for (ProcessNode node : all_nodes()) {
    const CoreTech& tech = core_tech(node);
    for (int cores : {8, 16, 24, 32, 48, 64, 96, 128}) {
      for (double freq = 1.5; freq <= tech.max_freq_ghz + 1e-9; freq += 0.5) {
        for (int chiplets : {1, 2, 4, 8}) {
          if (cores % chiplets != 0) continue;
          grid.push_back({node, cores, freq, chiplets});
        }
      }
    }
  }
  return grid;
}

std::vector<DesignEvaluation> DesignSpaceExplorer::pareto_front(
    const std::vector<DesignPoint>& candidates, CarbonIntensity grid) const {
  GREENHPC_REQUIRE(!candidates.empty(), "candidate set must not be empty");
  std::vector<DesignEvaluation> evals(candidates.size());
  util::parallel_for_chunked(candidates.size(), 1, [&](std::size_t i) {
    evals[i] = evaluate(candidates[i], grid);
  });
  std::sort(evals.begin(), evals.end(),
            [](const DesignEvaluation& a, const DesignEvaluation& b) {
              if (a.metrics.delay != b.metrics.delay) {
                return a.metrics.delay < b.metrics.delay;
              }
              return a.metrics.total().grams() < b.metrics.total().grams();
            });
  // Sweep ascending in delay; keep designs that strictly improve carbon.
  std::vector<DesignEvaluation> front;
  double best_carbon = std::numeric_limits<double>::infinity();
  for (const auto& ev : evals) {
    if (ev.metrics.total().grams() < best_carbon - 1e-12) {
      best_carbon = ev.metrics.total().grams();
      front.push_back(ev);
    }
  }
  return front;
}

DesignEvaluation DesignSpaceExplorer::best(const std::vector<DesignPoint>& candidates,
                                           Objective objective, CarbonIntensity grid) const {
  GREENHPC_REQUIRE(!candidates.empty(), "candidate set must not be empty");
  std::mutex mutex;
  DesignEvaluation best_eval;
  double best_value = std::numeric_limits<double>::infinity();
  util::parallel_for_chunked(candidates.size(), 1, [&](std::size_t i) {
    const DesignEvaluation ev = evaluate(candidates[i], grid);
    const double value = ev.objective_value(objective);
    std::lock_guard lock(mutex);
    if (value < best_value) {
      best_value = value;
      best_eval = ev;
    }
  });
  return best_eval;
}

}  // namespace greenhpc::embodied

// Property-based sweeps over the procurement optimizer: feasibility and
// near-optimality against exhaustive ground truth on randomized catalogs.

#include <gtest/gtest.h>

#include <cstdint>

#include "procure/optimizer.hpp"
#include "util/rng.hpp"

namespace greenhpc::procure {
namespace {

struct OptimizerCase {
  std::uint64_t seed;
  // 64-bit so the struct has no padding: gtest prints a parameter's bytes
  // into its ctest name, and padding would carry stack garbage.
  std::int64_t types;
  double cost_budget;
  double power_kw;
  double carbon_t;
};

class OptimizerProperties : public ::testing::TestWithParam<OptimizerCase> {
 protected:
  std::vector<NodeBlueprint> random_catalog() const {
    util::Rng rng(GetParam().seed);
    std::vector<NodeBlueprint> catalog;
    for (int i = 0; i < GetParam().types; ++i) {
      NodeBlueprint b;
      b.name = "type" + std::to_string(i);
      b.perf_tflops = rng.uniform(1.0, 50.0);
      b.power = watts(rng.uniform(150.0, 3500.0));
      b.embodied = kilograms_co2(rng.uniform(100.0, 2500.0));
      b.cost_keur = rng.uniform(5.0, 250.0);
      catalog.push_back(std::move(b));
    }
    return catalog;
  }
  ProcurementConstraints constraints() const {
    ProcurementConstraints c;
    c.cost_budget_keur = GetParam().cost_budget;
    c.power_limit = kilowatts(GetParam().power_kw);
    c.embodied_budget = tonnes_co2(GetParam().carbon_t);
    c.max_nodes = 12;
    return c;
  }
};

TEST_P(OptimizerProperties, HeuristicAlwaysFeasible) {
  const ProcurementOptimizer opt(random_catalog());
  const auto plan = opt.optimize(constraints());
  EXPECT_TRUE(plan.feasible(opt.catalog(), constraints()));
}

TEST_P(OptimizerProperties, HeuristicNearExhaustiveOptimum) {
  const ProcurementOptimizer opt(random_catalog());
  const auto heuristic = opt.optimize(constraints());
  const auto exact = opt.optimize_exhaustive(constraints(), 12);
  EXPECT_GE(heuristic.perf_tflops(opt.catalog()),
            0.85 * exact.perf_tflops(opt.catalog()));
}

TEST_P(OptimizerProperties, MonotoneInEveryBudget) {
  // Loosening any single budget never reduces achievable performance.
  const ProcurementOptimizer opt(random_catalog());
  const auto base = opt.optimize(constraints());
  const double base_perf = base.perf_tflops(opt.catalog());

  auto loosened = constraints();
  loosened.cost_budget_keur *= 2.0;
  EXPECT_GE(opt.optimize(loosened).perf_tflops(opt.catalog()), base_perf - 1e-9);

  loosened = constraints();
  loosened.power_limit = loosened.power_limit * 2.0;
  EXPECT_GE(opt.optimize(loosened).perf_tflops(opt.catalog()), base_perf - 1e-9);

  loosened = constraints();
  loosened.embodied_budget = loosened.embodied_budget * 2.0;
  EXPECT_GE(opt.optimize(loosened).perf_tflops(opt.catalog()), base_perf - 1e-9);
}

TEST_P(OptimizerProperties, ZeroBudgetYieldsEmptyPlan) {
  const ProcurementOptimizer opt(random_catalog());
  auto c = constraints();
  c.cost_budget_keur = 0.0;
  const auto plan = opt.optimize(c);
  EXPECT_EQ(plan.total_nodes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizerProperties,
    ::testing::Values(OptimizerCase{1, 3, 400.0, 8.0, 6.0},
                      OptimizerCase{2, 3, 150.0, 3.0, 2.0},
                      OptimizerCase{3, 4, 800.0, 20.0, 12.0},
                      OptimizerCase{4, 4, 250.0, 5.0, 1.5},
                      OptimizerCase{5, 2, 600.0, 12.0, 8.0},
                      OptimizerCase{6, 5, 500.0, 10.0, 5.0}),
    [](const ::testing::TestParamInfo<OptimizerCase>& pinfo) {
      return "seed" + std::to_string(pinfo.param.seed) + "_t" +
             std::to_string(pinfo.param.types);
    });

}  // namespace
}  // namespace greenhpc::procure

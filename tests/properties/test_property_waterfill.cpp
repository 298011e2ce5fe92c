// Property-based sweeps over hierarchical power distribution: the
// water-filling invariants must hold for every tree shape and budget.

#include <gtest/gtest.h>

#include <cstdint>

#include "powerstack/budget_tree.hpp"
#include "util/rng.hpp"

namespace greenhpc::powerstack {
namespace {

struct TreeCase {
  std::uint64_t seed;
  int jobs;
  int nodes_per_job;
  // 64-bit so the struct has no padding: gtest prints a parameter's bytes
  // into its ctest name, and padding would carry stack garbage.
  std::int64_t gpus;
  double budget_fraction;  // of the tree's aggregate max
};

class WaterFillProperties : public ::testing::TestWithParam<TreeCase> {
 protected:
  BudgetNode tree() const {
    const TreeCase& c = GetParam();
    ComponentBounds bounds;
    bounds.gpus_per_node = static_cast<int>(c.gpus);
    return make_site_tree(c.jobs, c.nodes_per_job, bounds);
  }
  Power budget() const {
    return tree().aggregate_max() * GetParam().budget_fraction;
  }
};

TEST_P(WaterFillProperties, LeavesSumToRoot) {
  const auto root = tree();
  const auto assignments = distribute(root, budget());
  double leaf_sum = 0.0;
  for (const auto& a : assignments) {
    if (a.is_leaf) leaf_sum += a.budget.watts();
  }
  EXPECT_NEAR(leaf_sum, assignments[0].budget.watts(),
              1e-6 * std::max(1.0, leaf_sum));
}

TEST_P(WaterFillProperties, EveryLeafWithinItsBounds) {
  const auto root = tree();
  const auto assignments = distribute(root, budget());
  ComponentBounds b;
  b.gpus_per_node = static_cast<int>(GetParam().gpus);
  for (const auto& a : assignments) {
    if (!a.is_leaf) continue;
    EXPECT_GE(a.budget.watts(), 0.0) << a.path;
    double max_w = b.dram_max.watts();
    if (a.path.find("/cpu") != std::string::npos) max_w = b.cpu_max.watts();
    if (a.path.find("/gpu") != std::string::npos) max_w = b.gpu_max.watts();
    EXPECT_LE(a.budget.watts(), max_w + 1e-6) << a.path;
  }
}

TEST_P(WaterFillProperties, MonotoneInBudget) {
  // Growing the root budget never shrinks any leaf's share.
  const auto root = tree();
  const auto small = distribute(root, budget() * 0.7);
  const auto large = distribute(root, budget());
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_LE(small[i].budget.watts(), large[i].budget.watts() + 1e-6)
        << small[i].path;
  }
}

TEST_P(WaterFillProperties, SiblingFairnessUnderEqualWeights) {
  // Jobs are identical subtrees with equal weights: their assignments must
  // match exactly.
  const auto root = tree();
  const auto assignments = distribute(root, budget());
  double first_job_budget = -1.0;
  for (const auto& a : assignments) {
    // Depth-1 nodes: "system/jobK".
    if (a.path.rfind("system/job", 0) == 0 &&
        a.path.find('/', 7) == a.path.rfind('/')) {
      if (first_job_budget < 0.0) {
        first_job_budget = a.budget.watts();
      } else {
        EXPECT_NEAR(a.budget.watts(), first_job_budget, 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaterFillProperties,
    ::testing::Values(TreeCase{1, 2, 2, 0, 0.5}, TreeCase{2, 4, 4, 0, 0.8},
                      TreeCase{3, 3, 2, 2, 0.3}, TreeCase{4, 8, 2, 4, 0.6},
                      TreeCase{5, 2, 8, 1, 0.95}, TreeCase{6, 6, 3, 0, 0.15},
                      TreeCase{7, 1, 1, 4, 0.5}, TreeCase{8, 5, 5, 2, 1.0}),
    [](const ::testing::TestParamInfo<TreeCase>& pinfo) {
      return "j" + std::to_string(pinfo.param.jobs) + "_n" +
             std::to_string(pinfo.param.nodes_per_job) + "_g" +
             std::to_string(pinfo.param.gpus) + "_b" +
             std::to_string(static_cast<int>(pinfo.param.budget_fraction * 100));
    });

}  // namespace
}  // namespace greenhpc::powerstack

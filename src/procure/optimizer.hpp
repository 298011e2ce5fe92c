#pragma once
// Carbon-constrained procurement optimization (paper section 2.2):
// "Traditionally, the system configurations are determined in order to
// maximize performance of proxy applications while adhering to constraints
// like total budget, power supply, machine footprint, or weight. In the
// future, system architects will need to take carbon footprint budget into
// account as another design constraint."
//
// The problem is an integer program: choose node counts n_i maximizing
// sum(n_i * perf_i) subject to cost, power, node-count and embodied-carbon
// budgets. The solver is a deterministic greedy construction (by
// performance per tightest-resource unit) refined by steepest-ascent
// exchange search; optimize_exhaustive() provides ground truth for small
// instances and is used by the tests to validate the heuristic.

#include <vector>

#include "procure/catalog.hpp"
#include "util/units.hpp"

namespace greenhpc::procure {

/// Budget envelope of a procurement round. Any constraint can be disabled
/// by leaving it at its (effectively unlimited) default.
struct ProcurementConstraints {
  double cost_budget_keur = 1e12;
  Power power_limit = megawatts(1e6);
  Carbon embodied_budget = tonnes_co2(1e12);
  int max_nodes = 1000000;
};

/// A chosen system configuration (counts parallel to the catalog order).
struct ProcurementPlan {
  std::vector<int> counts;

  [[nodiscard]] double perf_tflops(const std::vector<NodeBlueprint>& catalog) const;
  [[nodiscard]] double cost_keur(const std::vector<NodeBlueprint>& catalog) const;
  [[nodiscard]] Power power(const std::vector<NodeBlueprint>& catalog) const;
  [[nodiscard]] Carbon embodied(const std::vector<NodeBlueprint>& catalog) const;
  [[nodiscard]] int total_nodes() const;
  [[nodiscard]] bool feasible(const std::vector<NodeBlueprint>& catalog,
                              const ProcurementConstraints& c) const;
};

class ProcurementOptimizer {
 public:
  explicit ProcurementOptimizer(std::vector<NodeBlueprint> catalog);

  [[nodiscard]] const std::vector<NodeBlueprint>& catalog() const { return catalog_; }

  /// Heuristic optimum: greedy fill ordered by performance per unit of the
  /// binding constraint, then pairwise exchange improvement until a local
  /// optimum. Deterministic.
  [[nodiscard]] ProcurementPlan optimize(const ProcurementConstraints& c) const;

  /// Exact optimum by bounded enumeration; cost grows as
  /// (max_count+1)^types, so only use with small instances. Kept as the
  /// oracle of `Optimizer.MatchesExhaustiveOnSmallInstances`.
  [[nodiscard]] ProcurementPlan optimize_exhaustive(const ProcurementConstraints& c,
                                                    int max_count_per_type) const;

 private:
  [[nodiscard]] bool can_add(const ProcurementPlan& plan, std::size_t type,
                             const ProcurementConstraints& c) const;

  std::vector<NodeBlueprint> catalog_;
};

}  // namespace greenhpc::procure

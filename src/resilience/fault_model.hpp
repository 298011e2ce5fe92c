#pragma once
// Seeded node-failure model (robustness layer).
//
// Generates deterministic per-node failure schedules for
// hpcsim::FaultInjectionConfig from a per-node MTBF: each node is an
// independent Weibull renewal process (shape 1 = the classic exponential
// assumption behind Young/Daly; shape < 1 models infant mortality,
// shape > 1 wear-out). An age-dependent hazard multiplier scales failure
// rates with the system's service years, so the lifetime extensions the
// paper advocates (section 2.3) come with their reliability cost: the
// longer a system serves, the more node-hours its failures destroy.

#include <cstdint>
#include <vector>

#include "hpcsim/faults.hpp"
#include "util/units.hpp"

namespace greenhpc::resilience {

struct FaultModelConfig {
  /// Number of independent nodes generating failures.
  int nodes = 0;
  /// Schedule generation horizon (events beyond it are not generated).
  Duration horizon = days(30.0);
  /// Per-node mean time between failures at age zero. Non-positive
  /// disables failure generation entirely (perfect hardware).
  Duration node_mtbf = seconds(0.0);
  /// Weibull shape k of the inter-failure distribution (1 = exponential).
  double weibull_shape = 1.0;
  /// Mean per-node repair time (exponentially distributed).
  Duration mean_repair = hours(4.0);
  /// System age in service years.
  double age_years = 0.0;
  /// Hazard growth per service year: effective failure rate is scaled by
  /// hazard_multiplier() = 1 + age_acceleration * age_years. Zero keeps
  /// the age out of the model.
  double age_acceleration = 0.0;
  /// Root seed; node i draws from an independent SplitMix64-derived stream.
  std::uint64_t seed = 0x5eedfa17ull;

  [[nodiscard]] double hazard_multiplier() const {
    return 1.0 + age_acceleration * age_years;
  }
  /// MTBF after age derating: node_mtbf / hazard_multiplier().
  [[nodiscard]] Duration effective_mtbf() const;
  void validate() const;
};

class FaultModel {
 public:
  explicit FaultModel(FaultModelConfig config);

  [[nodiscard]] const FaultModelConfig& config() const { return cfg_; }

  /// The deterministic failure schedule: one single-node event per
  /// failure, sorted by time. Identical configs (including seed) yield
  /// bit-identical schedules on every platform.
  [[nodiscard]] std::vector<hpcsim::NodeFailureEvent> schedule() const;

  /// Convenience: the schedule wrapped in a FaultInjectionConfig carrying
  /// the given retry budget.
  [[nodiscard]] hpcsim::FaultInjectionConfig injection(
      int max_retries = 3, Duration backoff_base = minutes(10.0)) const;

 private:
  FaultModelConfig cfg_;
};

}  // namespace greenhpc::resilience

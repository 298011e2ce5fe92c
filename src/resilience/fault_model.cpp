#include "resilience/fault_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace greenhpc::resilience {

Duration FaultModelConfig::effective_mtbf() const {
  if (node_mtbf.seconds() <= 0.0) return node_mtbf;
  return seconds(node_mtbf.seconds() / hazard_multiplier());
}

void FaultModelConfig::validate() const {
  GREENHPC_REQUIRE(nodes >= 0, "fault model: nodes must be >= 0");
  GREENHPC_REQUIRE(horizon.seconds() > 0.0, "fault model: horizon must be > 0");
  GREENHPC_REQUIRE(weibull_shape > 0.0, "fault model: weibull shape must be > 0");
  GREENHPC_REQUIRE(mean_repair.seconds() > 0.0, "fault model: mean repair must be > 0");
  GREENHPC_REQUIRE(age_years >= 0.0, "fault model: age must be >= 0");
  GREENHPC_REQUIRE(age_acceleration >= 0.0,
                   "fault model: age acceleration must be >= 0");
}

FaultModel::FaultModel(FaultModelConfig config) : cfg_(config) { cfg_.validate(); }

std::vector<hpcsim::NodeFailureEvent> FaultModel::schedule() const {
  std::vector<hpcsim::NodeFailureEvent> events;
  if (cfg_.node_mtbf.seconds() <= 0.0 || cfg_.nodes == 0) return events;

  // Weibull mean = scale * Gamma(1 + 1/k); invert so the draw's mean is
  // the age-derated MTBF regardless of shape.
  const double mtbf_s = cfg_.effective_mtbf().seconds();
  const double scale = mtbf_s / std::tgamma(1.0 + 1.0 / cfg_.weibull_shape);
  const double repair_rate = 1.0 / cfg_.mean_repair.seconds();

  for (int node = 0; node < cfg_.nodes; ++node) {
    // Independent per-node stream: mixing the node index through
    // SplitMix64 keeps streams uncorrelated and the whole schedule a pure
    // function of (config, seed).
    std::uint64_t mix = cfg_.seed + 0x9e3779b97f4a7c15ull * (node + 1u);
    util::Rng rng(util::splitmix64(mix));
    double t = rng.weibull(cfg_.weibull_shape, scale);  // renewal process
    while (t < cfg_.horizon.seconds()) {
      const double repair_s = std::max(60.0, rng.exponential(repair_rate));
      events.push_back({seconds(t), 1, seconds(repair_s)});
      t += repair_s + rng.weibull(cfg_.weibull_shape, scale);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const hpcsim::NodeFailureEvent& a,
                      const hpcsim::NodeFailureEvent& b) { return a.time < b.time; });
  return events;
}

hpcsim::FaultInjectionConfig FaultModel::injection(int max_retries,
                                                   Duration backoff_base) const {
  hpcsim::FaultInjectionConfig inj;
  inj.events = schedule();
  inj.max_retries = max_retries;
  inj.backoff_base = backoff_base;
  inj.victim_seed = cfg_.seed ^ 0x71c71a5ull;
  return inj;
}

}  // namespace greenhpc::resilience

#include "resilience/checkpoint_policy.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace greenhpc::resilience {

void CheckpointPolicyConfig::validate() const {
  GREENHPC_REQUIRE(fixed_interval.seconds() > 0.0 || node_mtbf.seconds() > 0.0,
                   "checkpoint policy: needs node_mtbf or fixed_interval");
  GREENHPC_REQUIRE(fixed_interval.seconds() >= 0.0 && min_interval.seconds() >= 0.0,
                   "checkpoint policy: intervals must be >= 0");
}

PeriodicCheckpointPolicy::PeriodicCheckpointPolicy(hpcsim::SchedulingPolicy& inner,
                                                   CheckpointPolicyConfig config)
    : inner_(inner), cfg_(config) {
  cfg_.validate();
}

Duration PeriodicCheckpointPolicy::young_daly_interval(Duration overhead,
                                                       Duration node_mtbf,
                                                       int nodes) {
  GREENHPC_REQUIRE(node_mtbf.seconds() > 0.0 && nodes >= 1,
                   "young/daly: mtbf and nodes must be positive");
  // System MTBF of an n-node job is node MTBF / n (independent failures).
  const double system_mtbf = node_mtbf.seconds() / static_cast<double>(nodes);
  return seconds(std::sqrt(2.0 * overhead.seconds() * system_mtbf));
}

Duration PeriodicCheckpointPolicy::interval_for(const hpcsim::JobTable& t,
                                                std::size_t i) const {
  if (cfg_.fixed_interval.seconds() > 0.0) return cfg_.fixed_interval;
  const Duration tau = young_daly_interval(seconds(t.ckpt_overhead_s[i]), cfg_.node_mtbf,
                                           t.nodes_used[i]);
  return std::max(tau, cfg_.min_interval);
}

void PeriodicCheckpointPolicy::on_tick(hpcsim::SimulationView& view) {
  inner_.on_tick(view);
  const hpcsim::JobTable& t = view.job_table();
  for (hpcsim::JobId id : view.running_jobs()) {
    const std::size_t i = view.slot_of(id);
    if (t.checkpointable[i] == 0 || t.ckpt_overhead_s[i] <= 0.0) continue;
    if (view.now() - seconds(t.last_checkpoint_s[i]) >= interval_for(t, i)) {
      view.checkpoint(id);
    }
  }
}

bool PeriodicCheckpointPolicy::quiescent_over_release(
    const hpcsim::SimulationView& view) const {
  const hpcsim::JobTable& t = view.job_table();
  for (hpcsim::JobId id : view.running_jobs()) {
    const std::size_t i = view.slot_of(id);
    if (t.checkpointable[i] == 0 || t.ckpt_overhead_s[i] <= 0.0) continue;
    if (view.now() - seconds(t.last_checkpoint_s[i]) >= interval_for(t, i)) {
      return false;  // on_tick would checkpoint this job right now
    }
  }
  return inner_.quiescent_over_release(view);
}

Duration PeriodicCheckpointPolicy::quiescent_until(
    const hpcsim::SimulationView& view) const {
  Duration horizon = inner_.quiescent_until(view);
  const hpcsim::JobTable& t = view.job_table();
  for (hpcsim::JobId id : view.running_jobs()) {
    const std::size_t i = view.slot_of(id);
    if (t.checkpointable[i] == 0 || t.ckpt_overhead_s[i] <= 0.0) continue;
    const Duration due =
        seconds(t.last_checkpoint_s[i]) + interval_for(t, i);
    if (due < horizon) horizon = due;
  }
  return horizon < view.now() ? view.now() : horizon;
}

}  // namespace greenhpc::resilience

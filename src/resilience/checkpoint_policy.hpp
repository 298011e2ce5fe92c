#pragma once
// Periodic in-place checkpointing with the Young/Daly optimal interval.
//
// A decorator over any SchedulingPolicy: the inner policy makes all
// start/suspend/resume decisions; this layer additionally writes in-place
// checkpoints (SimulationView::checkpoint) for running checkpointable
// jobs on a periodic clock. The interval is Young's first-order optimum
//   tau = sqrt(2 * delta * M_sys),   M_sys = node_mtbf / nodes_used
// per job (delta = the job's checkpoint overhead): frequent enough that
// failures destroy little work, rare enough that the overhead does not
// swamp goodput. Checkpointing trades a known small carbon cost (the
// overhead) against a stochastic large one (recomputation), which is why
// it appears in a sustainability simulator at all.

#include <string>

#include "hpcsim/policy.hpp"
#include "util/units.hpp"

namespace greenhpc::resilience {

struct CheckpointPolicyConfig {
  /// Per-node MTBF assumed by the Young/Daly formula. Must be > 0 unless
  /// fixed_interval is set.
  Duration node_mtbf = seconds(0.0);
  /// Non-zero overrides Young/Daly with a fixed interval (for sweeps).
  Duration fixed_interval = seconds(0.0);
  /// Lower clamp on the interval (guards tiny-overhead jobs from
  /// checkpointing every tick).
  Duration min_interval = minutes(5.0);

  void validate() const;
};

class PeriodicCheckpointPolicy final : public hpcsim::SchedulingPolicy {
 public:
  /// `inner` must outlive this policy.
  PeriodicCheckpointPolicy(hpcsim::SchedulingPolicy& inner,
                           CheckpointPolicyConfig config);

  void on_tick(hpcsim::SimulationView& view) override;
  [[nodiscard]] std::string name() const override {
    return inner_.name() + "+ydckpt";
  }

  /// Quiescent until the earliest periodic checkpoint comes due (each
  /// running checkpointable job's last checkpoint plus its Young/Daly or
  /// fixed interval) or the inner policy's own horizon, whichever is
  /// first. The due times are fixed while the discrete state is frozen —
  /// the checkpoint clock only moves on checkpoint/start/resume, all of
  /// which end a span through the engine's epoch gate.
  [[nodiscard]] Duration quiescent_until(
      const hpcsim::SimulationView& view) const override;

  /// The periodic checkpoint clock never looks at the pending queue.
  [[nodiscard]] bool quiescent_over_arrivals(
      const hpcsim::SimulationView& view) const override {
    return inner_.quiescent_over_arrivals(view);
  }

  /// A release never moves a checkpoint clock, but on_tick checkpoints
  /// any running job whose interval elapsed by now — so attest only when
  /// no checkpoint is due at the post-release tick, then defer to the
  /// inner policy's release attestation.
  [[nodiscard]] bool quiescent_over_release(
      const hpcsim::SimulationView& view) const override;

  /// Young's interval sqrt(2 * overhead * node_mtbf / nodes) for a job
  /// spanning `nodes` nodes.
  [[nodiscard]] static Duration young_daly_interval(Duration overhead,
                                                    Duration node_mtbf, int nodes);

 private:
  /// The checkpoint interval of the job in slot i.
  [[nodiscard]] Duration interval_for(const hpcsim::JobTable& t, std::size_t i) const;

  hpcsim::SchedulingPolicy& inner_;
  CheckpointPolicyConfig cfg_;
};

}  // namespace greenhpc::resilience

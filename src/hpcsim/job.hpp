#pragma once
// Job model of the cluster simulator.
//
// The simulator supports the three job classes the paper's section 3.2
// distinguishes:
//   * rigid    — fixed node count, chosen at submit;
//   * moldable — node count chosen by the scheduler at start, fixed after;
//   * malleable — node count changeable at runtime within [min, max].
//
// Performance under a power cap follows the standard power-performance
// elasticity model: running the busy nodes at fraction c of full power
// (c in [min_cap, 1]) yields speed c^alpha, with alpha per job (compute-
// bound jobs are frequency-sensitive, memory-bound ones much less so).
// Scaling to n nodes relative to the job's natural size m yields speed
// (n/m)^gamma (power-law strong-scaling with per-job efficiency gamma).

#include <string>

#include "util/units.hpp"

namespace greenhpc::hpcsim {

using JobId = int;

/// Rigid / moldable / malleable (section 3.2).
enum class JobKind { Rigid, Moldable, Malleable };

/// Static description of one job as submitted.
struct JobSpec {
  JobId id = 0;
  std::string user;              ///< owning user (accounting, section 3.4)
  std::string project;           ///< charged project
  JobKind kind = JobKind::Rigid;
  Duration submit;               ///< submission time

  /// Nodes the user *requested* (held while running). May exceed
  /// nodes_used — the over-allocation the paper observed on SuperMUC-NG.
  int nodes_requested = 1;
  /// Nodes the job can actually exploit (its natural size).
  int nodes_used = 1;
  /// Allocation range honoured for malleable jobs ([min, max] on top of
  /// the natural size; both equal nodes_requested for rigid jobs).
  int min_nodes = 1;
  int max_nodes = 1;

  /// Runtime when executing on nodes_used nodes at full power.
  Duration runtime = hours(1.0);
  /// User-declared walltime limit (backfill reservation input; >= runtime).
  Duration walltime = hours(2.0);

  /// Power of one busy node while this job runs at full speed.
  Power node_power = watts(400.0);
  /// Power-performance elasticity: speed = cap_fraction^power_alpha.
  double power_alpha = 0.4;
  /// Strong-scaling exponent: speed = (n / nodes_used)^scale_gamma.
  double scale_gamma = 0.9;

  /// Whether the job can be checkpointed and suspended (section 3.3).
  bool checkpointable = false;
  /// Work lost + I/O cost charged on each suspend, expressed as extra
  /// runtime at the natural size.
  Duration checkpoint_overhead = minutes(10.0);

  /// Fraction of execution time the application spends in MPI waits.
  double mpi_wait_fraction = 0.0;
  /// Whether the job links a Countdown-class runtime library (section
  /// 3.4, Cesarini et al.): cores drop to low power during MPI waits at
  /// no performance cost, reducing the busy-node draw by
  /// kPowersaveEffectiveness * mpi_wait_fraction.
  bool powersave_runtime = false;

  /// Share of wait-time power the runtime library recovers.
  static constexpr double kPowersaveEffectiveness = 0.6;

  /// Effective busy-node draw at full speed, after the runtime library's
  /// wait-time power reduction.
  [[nodiscard]] Power effective_node_power() const {
    const double factor =
        powersave_runtime ? 1.0 - kPowersaveEffectiveness * mpi_wait_fraction : 1.0;
    return node_power * factor;
  }

  /// Validate internal consistency; throws InvalidArgument on violation.
  void validate() const;
};

}  // namespace greenhpc::hpcsim

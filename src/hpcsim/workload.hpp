#pragma once
// Synthetic workload generation.
//
// Substitution note (DESIGN.md): the paper's section 3.4 analyses user job
// data from SuperMUC-NG, which is not public. This generator produces a
// statistically similar mix — Weibull runtimes with a heavy tail,
// log-uniform node counts, diurnal submission pattern — and exposes the
// one behaviour the paper calls out explicitly as a knob: users
// requesting more nodes than their jobs can use (`over_allocation_mean`).

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "hpcsim/job.hpp"
#include "util/rng.hpp"

namespace greenhpc::hpcsim {

struct WorkloadConfig {
  int job_count = 1000;
  /// Submissions are spread over this window.
  Duration span = days(7.0);
  /// Relative strength of the working-hours submission peak (0 = uniform).
  double diurnal_amplitude = 0.5;
  /// Non-zero quantizes submit times DOWN to multiples of this duration,
  /// turning the diurnal stream into synchronized arrival waves with long
  /// arrival-free gaps between them (the completion-bound regime the span
  /// kernel exploits). Zero leaves the continuous stream untouched — the
  /// RNG draw sequence is identical either way, so existing seeds and
  /// cached workloads are unaffected when the knob is off.
  Duration arrival_quantum = seconds(0.0);

  /// Per-job natural size is log-uniform in [1, max_job_nodes].
  int max_job_nodes = 128;
  /// Runtimes are Weibull(shape, scale) clamped to [min, max].
  double runtime_weibull_shape = 0.9;
  Duration runtime_mean = hours(3.0);
  Duration runtime_min = minutes(10.0);
  Duration runtime_max = hours(24.0);
  /// Users overestimate walltime by a lognormal factor >= 1.
  double walltime_factor_sigma = 0.5;

  /// Mean of the over-allocation multiplier (1 = users request exactly
  /// what they need; the paper's observation corresponds to > 1).
  double over_allocation_mean = 1.0;
  /// Fraction of jobs that are malleable (section 3.2).
  double malleable_fraction = 0.0;
  /// Fraction of jobs that are moldable: the scheduler picks the node
  /// count within [natural/2, natural*2] at start; fixed afterwards.
  double moldable_fraction = 0.0;
  /// Fraction of jobs that can checkpoint/suspend (section 3.3).
  double checkpointable_fraction = 0.0;

  /// Busy-node power draw: normal around the mean, clamped to
  /// [0.5 * mean, tdp_limit].
  Power node_power_mean = watts(400.0);
  Power node_power_sigma = watts(60.0);
  Power node_power_limit = watts(500.0);

  /// Per-job power elasticity alpha ~ U[alpha_min, alpha_max].
  double alpha_min = 0.30;
  double alpha_max = 0.55;
  /// Per-job scaling exponent gamma ~ U[gamma_min, gamma_max].
  double gamma_min = 0.75;
  double gamma_max = 0.98;

  /// Mean MPI-wait share of application time (per-job draw uniform in
  /// [0, 2*mean]).
  double mpi_wait_mean = 0.2;
  /// Fraction of jobs linking a Countdown-class power-saving runtime
  /// (section 3.4's user-side lever).
  double powersave_adoption = 0.0;

  /// Distinct submitting users (accounting experiments).
  int user_count = 32;

  /// Field-exact equality — the WorkloadCache key: equal (config, seed)
  /// pairs generate bit-identical job lists.
  [[nodiscard]] bool operator==(const WorkloadConfig&) const = default;
};

/// Deterministic workload generator: the same (config, seed) always yields
/// the same job list.
class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, std::uint64_t seed);

  /// Generate the job list (ids 1..job_count, ordered by submit time).
  [[nodiscard]] std::vector<JobSpec> generate();

 private:
  [[nodiscard]] Duration draw_submit_time();
  [[nodiscard]] Duration draw_runtime();

  WorkloadConfig cfg_;
  util::Rng rng_;
};

/// Memoized, thread-safe store of generated job lists — the workload-side
/// sibling of carbon::TraceCache. Sweep cases that differ only in policy
/// (or region, or cluster shape with the same workload bounds) share one
/// immutable job vector, which plugs straight into the zero-copy
/// Simulator. Keys are full (config, seed) pairs compared field-exact, so
/// a hit is guaranteed bit-identical to a fresh generate(); they are hashed
/// over every field, so a lookup costs the same with a thousand distinct
/// workloads (one per seed replica) as with one.
class WorkloadCache {
 public:
  /// The job list for (config, seed): generated on the first request,
  /// shared afterwards. Thread-safe; generation runs outside the lock
  /// (a raced duplicate loses, every caller gets the first insertion).
  [[nodiscard]] std::shared_ptr<const std::vector<JobSpec>> get(
      const WorkloadConfig& config, std::uint64_t seed);

  /// Number of distinct job lists currently held.
  [[nodiscard]] std::size_t size() const;
  /// Lookup counters since construction / the last clear().
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  /// Drop every cached list (outstanding shared pointers stay valid) and
  /// reset the counters.
  void clear();

  /// Process-wide cache shared by ScenarioRunner and the sweep engine.
  static WorkloadCache& global();

 private:
  struct Key {
    WorkloadConfig config;
    std::uint64_t seed = 0;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const std::vector<JobSpec>>, KeyHash> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace greenhpc::hpcsim

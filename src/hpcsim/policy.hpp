#pragma once
// Policy interfaces of the simulator.
//
// The simulator is policy-free: every decision the paper's section 3
// discusses — which job starts when (3.3), how many nodes a malleable job
// holds (3.2), what the total system power budget is (3.1) — is delegated
// through these interfaces. Concrete policies live in the sched/ and
// powerstack/ modules; hpcsim only defines the contract, keeping the
// dependency graph acyclic.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "hpcsim/cluster.hpp"
#include "hpcsim/job.hpp"
#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::hpcsim {

/// Structure-of-arrays view over per-job state: parallel arrays indexed
/// by slot (resolve a JobId with SimulationView::slot_of). The engine
/// owns the storage (an arena-allocated SimCore); spans stay valid for
/// the life of the view, and the dynamic columns (progress, allocation,
/// wall clock) are updated in place each tick. This table is a policy's
/// only per-job read surface. It holds no energy or carbon, so reading
/// it never reveals the intensity (SimulationResult::carbon_blind).
struct JobTable {
  // --- static columns (flattened from JobSpec at construction) ---
  std::span<const double> eff_power_w;     ///< effective busy-node draw (W)
  std::span<const double> runtime_s;       ///< natural-size full-power runtime
  std::span<const double> walltime_s;      ///< user walltime estimate
  std::span<const double> submit_s;        ///< submission time
  std::span<const double> ckpt_overhead_s; ///< checkpoint overhead
  std::span<const std::int32_t> nodes_requested;
  std::span<const std::int32_t> nodes_used;
  std::span<const std::int32_t> min_nodes;
  std::span<const std::int32_t> max_nodes;
  std::span<const JobKind> kind;
  std::span<const std::uint8_t> checkpointable;
  // --- dynamic columns (engine-maintained) ---
  std::span<const double> progress;          ///< completed work fraction
  std::span<const double> wall_used_s;       ///< accumulated running wall time
  std::span<const double> start_s;           ///< first start (0 until started)
  std::span<const double> last_checkpoint_s; ///< periodic-checkpoint clock
  std::span<const std::int32_t> alloc_nodes; ///< nodes currently held
};

/// Sentinel horizon for SchedulingPolicy::quiescent_until: quiescent
/// until the next discrete event, however far away.
[[nodiscard]] inline Duration quiescent_forever() {
  return seconds(std::numeric_limits<double>::infinity());
}

/// Read/act surface a scheduling policy sees each tick. Implemented by the
/// simulator; all mutating calls are validated and return false (rather
/// than throwing) when the requested transition is not currently legal, so
/// policies can probe optimistically.
class SimulationView {
 public:
  virtual ~SimulationView() = default;

  // --- observation ---
  [[nodiscard]] virtual Duration now() const = 0;
  [[nodiscard]] virtual const ClusterConfig& cluster() const = 0;
  /// Nodes not currently allocated to any job.
  [[nodiscard]] virtual int free_nodes() const = 0;
  /// Nodes currently down due to injected failures (0 without fault
  /// injection). free_nodes() never includes down nodes.
  [[nodiscard]] virtual int nodes_down() const { return 0; }
  /// Grid carbon intensity as *observed* through the (possibly degraded)
  /// feed (gCO2/kWh): the latest fresh sample, held at its last known
  /// value during feed dropouts. Never garbage — but check
  /// carbon_signal_staleness() before trusting it.
  [[nodiscard]] virtual double carbon_intensity_now() const = 0;
  /// Age of the observation carbon_intensity_now() returns: zero while
  /// the feed is healthy, growing through a dropout. Carbon-aware
  /// policies must fall back to carbon-blind behaviour once this exceeds
  /// their staleness horizon.
  [[nodiscard]] virtual Duration carbon_signal_staleness() const {
    return seconds(0.0);
  }
  /// Observed intensity history up to (and excluding) the current tick:
  /// one sample per tick from time 0, step = cluster().tick, so end() is
  /// now() up to rounding — forecaster input.
  [[nodiscard]] virtual const util::TimeSeries& intensity_history() const = 0;
  /// A time T >= now() such that carbon_intensity_now() and
  /// carbon_signal_staleness() return their current values at every
  /// tick in [now, T) — so every history value appended before T is the
  /// current intensity too. Lets intensity-driven policies attest
  /// quiescence. The default (T = now) promises nothing.
  [[nodiscard]] virtual Duration intensity_constant_until() const { return now(); }
  /// The ground-truth trace when there is no feed, null with one. Without
  /// a feed the observed intensity at every tick is this trace sampled at
  /// the tick's clock, so intensity_history() is a function of the trace
  /// and the tick alone, whatever the schedule: policies may precompute
  /// what they derive from it once per trace (sched::GateSignal).
  [[nodiscard]] virtual const std::shared_ptr<const util::TimeSeries>& intensity_trace()
      const {
    static const std::shared_ptr<const util::TimeSeries> none;
    return none;
  }

  /// The job queues, by reference: no per-call copy on the tick hot path.
  /// The references stay valid for the life of the view, but any mutating
  /// call (start/suspend/resume/reshape, or the engine's own tick
  /// machinery) may reorder or reallocate the underlying storage — take a
  /// copy before iterating if the loop body mutates, e.g.
  /// `const std::vector<JobId> snapshot = view.pending_jobs();`.
  [[nodiscard]] virtual const std::vector<JobId>& pending_jobs() const = 0;
  [[nodiscard]] virtual const std::vector<JobId>& running_jobs() const = 0;
  /// Changes whenever the running set does: a job joins or leaves
  /// running_jobs(), or a running job's allocation changes. No two
  /// simulations in one process ever return the same value, so a cache
  /// keyed by it stays valid across a reused policy instance, and none
  /// is 0.
  [[nodiscard]] virtual std::uint64_t running_epoch() const = 0;
  [[nodiscard]] virtual const std::vector<JobId>& suspended_jobs() const = 0;
  /// Per-job static and dynamic columns (see JobTable above).
  [[nodiscard]] virtual const JobTable& job_table() const = 0;
  /// Slot index of a job in the JobTable columns.
  [[nodiscard]] virtual std::size_t slot_of(JobId id) const = 0;
  /// Remaining wall time of a running/suspended job at its current speed
  /// (walltime-based estimate for pending jobs).
  [[nodiscard]] virtual Duration estimated_remaining(JobId id) const = 0;

  /// System power budget currently in force.
  [[nodiscard]] virtual Power power_budget() const = 0;
  /// Draw if all currently running jobs ran uncapped (plus idle floor).
  [[nodiscard]] virtual Power full_draw() const = 0;

  // --- actions ---
  /// Start a pending job on `nodes` nodes. For rigid jobs `nodes` must
  /// equal nodes_requested; for moldable/malleable it must lie within
  /// [min_nodes, max_nodes]. Fails if insufficient free nodes.
  virtual bool start(JobId id, int nodes) = 0;
  /// Checkpoint and suspend a running, checkpointable job (frees nodes,
  /// charges the checkpoint overhead).
  virtual bool suspend(JobId id) = 0;
  /// Write an in-place checkpoint of a running, checkpointable job: the
  /// job keeps its nodes, pays the checkpoint overhead as lost progress,
  /// and a later node failure rolls it back here instead of to scratch.
  /// The lever behind Young/Daly periodic checkpointing
  /// (resilience::PeriodicCheckpointPolicy).
  virtual bool checkpoint(JobId) { return false; }
  /// Resume a suspended job on `nodes` nodes (>= min_nodes for malleable,
  /// previous allocation size rules otherwise).
  virtual bool resume(JobId id, int nodes) = 0;
  /// Change a running malleable job's allocation to `nodes` within its
  /// range. Shrinking frees nodes immediately; growing requires headroom.
  virtual bool reshape(JobId id, int nodes) = 0;
};

/// A scheduling policy: invoked once per tick after arrivals and the
/// power-budget update, free to start/suspend/resume/reshape jobs.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual void on_tick(SimulationView& view) = 0;
  /// Display name for experiment tables.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Quiescence attestation for the engine's span batch kernel (see
  /// DESIGN.md, "Performance architecture"). The engine calls this only
  /// after an on_tick that took no action, and only re-enters the
  /// per-tick path at the first discrete event (arrival, completion,
  /// walltime kill, fault, repair, requeue release) or at the returned
  /// horizon, whichever is earlier. A policy returning a horizon > now
  /// asserts: given the discrete state (queues, allocations, free/down
  /// nodes) stays exactly as observed and the power budget stays
  /// constant, repeating on_tick at any tick before the horizon would
  /// take no action — regardless of how the carbon signal moves. A
  /// policy whose decisions depend on the intensity signal or on wall
  /// time must bound the horizon accordingly. The default opts out
  /// (returns now), which always preserves tick-exact behaviour.
  [[nodiscard]] virtual Duration quiescent_until(const SimulationView& view) const {
    return view.now();
  }

  /// Stronger attestation consulted together with quiescent_until: when
  /// true, the no-action promise additionally survives new arrivals
  /// being appended to the back of the pending queue mid-span (the
  /// engine then performs the queue pushes itself at the exact arrival
  /// ticks and keeps integrating). Only sound when no appended job could
  /// be started or otherwise acted on before the next discrete event —
  /// e.g. FCFS behind a blocked head (strict order shields the tail), or
  /// any scheduler with zero free nodes. The engine re-asks this after
  /// every in-span release (which may invalidate it — freed nodes can
  /// make a future arrival startable); like quiescent_over_release, the
  /// re-ask may observe mid-span-stale continuous columns, so the answer
  /// must depend only on discrete state. The default (false) breaks the
  /// span at every arrival, which always preserves tick-exact behaviour.
  [[nodiscard]] virtual bool quiescent_over_arrivals(
      const SimulationView& view) const {
    (void)view;
    return false;
  }

  /// Release attestation for in-span completion handling. The engine
  /// resolves completions and walltime kills *inside* a span (the event
  /// tick runs the exact integrate path, including node release and
  /// record emission) and then asks this question with the view already
  /// reflecting the post-release state: running list compacted, freed
  /// nodes back in free_nodes(). Returning true asserts that on_tick at
  /// the post-release discrete state would take no action — no start,
  /// suspend, resume, reshape or checkpoint — at this tick AND at every
  /// remaining tick of the already-attested window, so the span may
  /// continue under its original horizon; only when that window is
  /// exhausted does the engine re-ask quiescent_until /
  /// quiescent_over_arrivals to extend it. Two contract consequences:
  /// (1) the answer must depend only on discrete state — queues,
  /// allocations, free/down nodes, static specs and event-updated fields
  /// like checkpoint marks — because the view's continuous integrator
  /// columns (progress, energy, carbon, walltime used) may be mid-span
  /// stale when this is asked; (2) the attestation logic must be
  /// time-independent over the window (a release only shrinks the
  /// running set, so horizons derived from per-job minima over it stay
  /// conservative). Returning false fences the span at the release; the
  /// per-tick path resumes at the next tick and the policy reacts there,
  /// exactly as the reference loop would. The default (false) always
  /// preserves tick-exact behaviour. Decorators must forward only when
  /// their own layer provably ignores node releases.
  [[nodiscard]] virtual bool quiescent_over_release(
      const SimulationView& view) const {
    (void)view;
    return false;
  }
};

/// A system power-budget policy (the PowerStack's top level, section 3.1):
/// maps the current time/intensity to the total power the site grants the
/// machine this tick.
class PowerBudgetPolicy {
 public:
  virtual ~PowerBudgetPolicy() = default;
  [[nodiscard]] virtual Power system_budget(Duration now, double carbon_intensity,
                                            const ClusterConfig& cluster) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace greenhpc::hpcsim

#pragma once
// The cluster simulator.
//
// A fixed-tick engine (default 60 s): grid intensity, power budget and job
// allocations are piecewise constant per tick, which makes every energy and
// carbon integral exact. Within a tick the engine handles early completion
// analytically, so job finish times are continuous, not tick-quantized.
//
// Each tick:
//   1. jobs whose submit time has arrived join the pending queue;
//   2. the PowerBudgetPolicy sets the system power budget (section 3.1);
//   3. the SchedulingPolicy observes the system and starts / suspends /
//      resumes / reshapes jobs (sections 3.2, 3.3);
//   4. if the uncapped draw exceeds the budget, a uniform power cap is
//      applied to all busy nodes (hierarchical distribution below the
//      job level is powerstack's concern); job speed follows each job's
//      power-performance elasticity;
//   5. progress, energy and carbon are integrated.
//
// With fault injection configured (faults.hpp) the tick additionally
// repairs nodes whose downtime has elapsed, applies due failure events
// (killing the jobs on failed nodes and requeueing them with exponential
// backoff and a bounded retry budget), and releases requeued jobs whose
// backoff expired. With an IntensityFeed configured, policies observe
// the feed (last-known-value hold during dropouts, with an exposed
// staleness clock) while carbon accounting keeps using the ground truth.
//
// Hot-path engineering (see DESIGN.md, "Performance architecture"): job
// lookups resolve through a dense id->slot table instead of a hash map,
// the phase lists (pending/running/suspended/requeued) are maintained
// with position-bookkept ordered erases (O(1) find, order preserved so
// policies observe identical queues), the pow() speed factors are cached
// per job, intensity sampling uses a monotonic cursor, and wholly idle
// gaps (no jobs anywhere, no arrivals or fault events due) run as a
// zero-job span: the span kernel with an empty running set, which never
// calls the policy.
//
// Zero-copy inputs (see DESIGN.md, "Sweep engine & shared-asset memory
// model"): the intensity trace and the job list are held as shared
// immutable assets (util::Shared), so a thousand-case sweep instantiates a
// thousand Simulators over ONE trace buffer and ONE job vector instead of
// copying both per case. Plain values still convert implicitly (wrapped
// once), so single-run callers are unaffected.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hpcsim/cluster.hpp"
#include "hpcsim/faults.hpp"
#include "hpcsim/job.hpp"
#include "hpcsim/policy.hpp"
#include "hpcsim/result.hpp"
#include "hpcsim/sim_core.hpp"
#include "telemetry/sensor_store.hpp"
#include "util/rng.hpp"
#include "util/shared.hpp"
#include "util/time_series.hpp"

namespace greenhpc::hpcsim {

class Simulator final : public SimulationView {
 public:
  struct Config {
    ClusterConfig cluster;
    /// Grid carbon-intensity trace (g/kWh); sampled with clamping, so the
    /// simulation may outlast the trace. Shared immutable: assign a
    /// TimeSeries value (wrapped once) or an already-shared trace
    /// (zero-copy across concurrent Simulators).
    util::Shared<util::TimeSeries> carbon_intensity;
    /// Hard stop even if jobs remain (guards against livelocked policies).
    Duration max_time = days(90.0);
    /// Optional telemetry sink for system-level sensors
    /// ("system.power", "system.budget", "system.ci", "system.busy_nodes";
    /// with faults also "system.nodes_down", with a feed also
    /// "system.ci_observed" and "system.ci_staleness").
    telemetry::SensorStore* telemetry = nullptr;
    /// Node-failure injection; default = perfect hardware (strictly
    /// opt-in: an empty schedule reproduces the fault-free run exactly).
    FaultInjectionConfig faults;
    /// Observation channel for the carbon-intensity signal policies see;
    /// null = perfect feed (observed == true). Must outlive the run.
    IntensityFeed* feed = nullptr;
    /// Force the tick-exact reference path: disables the span batch
    /// kernel (busy spans and zero-job idle spans alike), so every tick
    /// runs the full arrivals/faults/schedule/integrate sequence. The
    /// span kernel is bit-identical by construction — it shares
    /// power_cap() and commit_tick() with integrate_tick — and this knob
    /// exists so the equivalence property test (and debugging sessions)
    /// can prove it.
    bool reference_mode = false;
  };

  /// The job list need not be sorted; it is indexed by JobId internally.
  /// Shared immutable: pass a vector value (wrapped once) or a shared job
  /// list (zero-copy — per-job state lives in slots referencing the
  /// shared specs, which must stay unchanged for the Simulator's life).
  Simulator(Config config, util::Shared<std::vector<JobSpec>> jobs);
  /// Convenience for plain (and braced) vector arguments.
  Simulator(Config config, std::vector<JobSpec> jobs)
      : Simulator(std::move(config),
                  util::Shared<std::vector<JobSpec>>(std::move(jobs))) {}

  /// Run to completion under the given policies. `power` may be null for
  /// an unconstrained system. May be called once per Simulator instance.
  SimulationResult run(SchedulingPolicy& sched, PowerBudgetPolicy* power = nullptr);

  // --- SimulationView ---
  [[nodiscard]] Duration now() const override { return now_; }
  [[nodiscard]] const ClusterConfig& cluster() const override { return cfg_.cluster; }
  [[nodiscard]] int free_nodes() const override { return free_nodes_; }
  [[nodiscard]] int nodes_down() const override { return nodes_down_; }
  // The intensity accessors record that the policy read the intensity:
  // SimulationResult::carbon_blind. The engine itself reads the members,
  // never these.
  [[nodiscard]] double carbon_intensity_now() const override {
    intensity_read_ = true;
    return ci_now_;
  }
  [[nodiscard]] Duration carbon_signal_staleness() const override {
    intensity_read_ = true;
    return staleness_;
  }
  [[nodiscard]] const util::TimeSeries& intensity_history() const override {
    intensity_read_ = true;
    return ci_history_;
  }
  /// End of the current trace segment with no feed (+inf past the trace
  /// end, where the clamped sample never changes); now() with a feed,
  /// whose observations and staleness move every tick.
  [[nodiscard]] Duration intensity_constant_until() const override;
  [[nodiscard]] const std::shared_ptr<const util::TimeSeries>& intensity_trace()
      const override;
  [[nodiscard]] const std::vector<JobId>& pending_jobs() const override {
    return pending_;
  }
  [[nodiscard]] const std::vector<JobId>& running_jobs() const override {
    return running_;
  }
  [[nodiscard]] std::uint64_t running_epoch() const override { return running_epoch_; }
  [[nodiscard]] const std::vector<JobId>& suspended_jobs() const override {
    return suspended_;
  }
  [[nodiscard]] const JobTable& job_table() const override { return table_; }
  [[nodiscard]] std::size_t slot_of(JobId id) const override {
    return slot_index(id);
  }
  [[nodiscard]] Duration estimated_remaining(JobId id) const override;
  [[nodiscard]] Power power_budget() const override { return budget_now_; }
  [[nodiscard]] Power full_draw() const override;
  bool start(JobId id, int nodes) override;
  bool suspend(JobId id) override;
  bool checkpoint(JobId id) override;
  bool resume(JobId id, int nodes) override;
  bool reshape(JobId id, int nodes) override;

 private:
  /// Which phase list currently holds a job (None = no list: not yet
  /// arrived, or Done).
  enum class Queue : std::uint8_t { None, Pending, Running, Suspended, Requeued };

  /// Lifecycle phase of a job inside the simulator.
  enum class JobPhase { Pending, Running, Suspended, Done };

  /// Cold per-job state kept beside the SoA columns (progress,
  /// allocation, clocks, energy and carbon live in the columns; policies
  /// read them through hpcsim::JobTable).
  struct JobRuntimeInfo {
    JobPhase phase = JobPhase::Pending;
    Duration finish;         ///< completion time (valid once Done)
    bool killed = false;     ///< terminated by walltime enforcement
    int suspend_count = 0;   ///< checkpoint/suspend cycles so far

    // --- resilience state (inert unless faults/checkpoints are used) ---
    /// Progress captured by the most recent checkpoint or suspend; a node
    /// failure rolls a checkpointable job back to this point (0 = scratch).
    double ckpt_progress = 0.0;
    int checkpoint_count = 0;  ///< in-place checkpoints written so far
    int failure_count = 0;     ///< node-failure kills suffered so far
    bool failed = false;       ///< abandoned after exhausting the retry budget
    /// Not dispatchable again before this time (post-failure backoff).
    Duration requeue_ready;
    /// Energy/carbon at the last checkpoint — the waste meter's zero point.
    Energy energy_mark;
    Carbon carbon_mark;
  };

  struct JobSlot {
    /// Static description, pointing into the shared job list (immutable,
    /// owned by jobs_ for the Simulator's lifetime).
    const JobSpec* spec = nullptr;
    /// Cold per-job state (phase, finish, counters, resilience marks);
    /// the hot fields live in SimCore's columns.
    JobRuntimeInfo info;
    /// Phase-list membership (position-bookkept ordered erase).
    Queue queue = Queue::None;
    std::int32_t list_pos = -1;
  };

  /// O(1) id -> slot resolution through the dense table (ids are small
  /// ints in practice); falls back to the hash map for sparse id spaces.
  [[nodiscard]] std::size_t slot_index(JobId id) const {
    if (static_cast<std::size_t>(id) < dense_index_.size()) {
      const std::int32_t idx = dense_index_[static_cast<std::size_t>(id)];
      if (idx >= 0) return static_cast<std::size_t>(idx);
    }
    return slot_index_slow(id);
  }
  [[nodiscard]] std::size_t slot_index_slow(JobId id) const;

  /// Busy nodes of a running job (nodes that draw job power and produce
  /// progress): all allocated nodes for malleable jobs, nodes_used for
  /// rigid/moldable jobs with over-allocation.
  [[nodiscard]] int busy_nodes_of(std::size_t i) const;
  /// Speed multiplier from allocation size (power-law strong scaling).
  [[nodiscard]] double scale_speed(std::size_t i) const;
  /// Cached pow(cap, alpha); exact 1.0 for the uncapped case. (The cache
  /// columns are raw pointers into the arena, so const methods may
  /// refresh them — same contract as the former mutable members.)
  [[nodiscard]] double cap_speed(std::size_t i, double cap) const;
  /// Cached scale_speed keyed on the busy-node count.
  [[nodiscard]] double scale_factor(std::size_t i) const;
  [[nodiscard]] bool allocation_valid(const JobSpec& spec, int nodes) const;

  /// Append to / remove from a phase list, keeping each member slot's
  /// list_pos in sync. Erase is by known position (no scan) and shifts the
  /// tail, so the observable iteration order policies depend on is
  /// preserved exactly.
  void list_push(std::vector<JobId>& list, Queue kind, JobId id);
  void list_erase(std::vector<JobId>& list, JobId id);

  /// The uniform power cap over the running set: the cap fraction, the
  /// budget-violation flag (cap floored at min_cap_fraction, or the idle
  /// floor alone over budget) and the uncapped demand it was derived from.
  struct PowerCap {
    double cap = 1.0;
    bool violation = false;
    double demand_w = 0.0;
  };
  [[nodiscard]] PowerCap power_cap() const;
  /// Progress rate (per second) and draw (W) of running slot i under cap.
  struct JobRate {
    double rate = 0.0;
    double draw_w = 0.0;
  };
  [[nodiscard]] JobRate job_rate(std::size_t i, double cap) const;
  /// One tick's system bookkeeping, shared by integrate_tick and the span
  /// kernel's per-tick and event ticks: the violation count, idle and
  /// total energy and carbon, the four per-tick series, telemetry, the
  /// intensity history and the clock advance. (The span's check-free
  /// chunk is the only other writer: the run-length form of the same
  /// additions.)
  void commit_tick(double energy_j, double idle_j, double busy_nodes, double ci,
                   bool violation);
  void integrate_tick();
  /// A span's end: the attested horizon capped by hard_end, and by the
  /// next submission unless the span rides arrivals.
  [[nodiscard]] Duration span_window(Duration horizon, Duration hard_end,
                                     bool ride_arrivals) const;
  /// Span batch kernel: integrate ticks in [now, span_end) in one flat
  /// loop over the running set. Entered for a busy span only when the
  /// scheduler took no action at the current discrete state (epoch
  /// check) and attests quiescence (SchedulingPolicy::quiescent_until),
  /// and no fault event, repair or requeue release falls before
  /// hard_end; entered for an idle gap (no job in any list, no repair,
  /// no power policy) as a zero-job span, which has no event tick and
  /// never calls the policy. The per-tick constants (cap, per-job
  /// draw/rate, totals) are hoisted once per sub-span; every accumulator
  /// receives the same additions in the same order as the per-tick path,
  /// so results are bit-identical.
  /// A tick a completion or walltime kill lands in is resolved inside
  /// the kernel: it replays integrate_tick's exact sequence — analytic
  /// mid-tick finish, node release, record emission, order-preserving
  /// compaction — then the span continues iff the policy attests the
  /// release changed nothing (quiescent_over_release) under a re-asked
  /// horizon, and fences back to the per-tick path otherwise. hard_end
  /// caps every re-bound horizon (fault/repair/requeue/max_time events
  /// can never be crossed). Requires span_end > now_; integrates at
  /// least one tick, since an event on the first tick is resolved by the
  /// in-span event tick. Returns the ticks integrated; the caller counts
  /// them as span or fast-forward ticks.
  std::size_t run_span(SchedulingPolicy& sched, Duration hard_end, Duration span_end,
                       bool ride_arrivals);
  /// Flush the span-local per-completion counter batches to the obs
  /// registry (one add(n) per span instead of one atomic add per
  /// completion; see DESIGN.md).
  void flush_job_counters();

  // --- fault machinery (all no-ops with an empty failure schedule) ---
  /// Return repaired nodes to service, apply due failure events, release
  /// requeued jobs whose backoff expired.
  void advance_faults();
  /// Take one node down; kills the job occupying it if it is busy.
  void fail_one_node();
  /// Kill a running job hit by a node failure: roll back to its last
  /// checkpoint (scratch for non-checkpointable jobs), account the waste,
  /// requeue with backoff or abandon past the retry budget.
  void fail_job(JobId id);
  /// Sample the intensity feed: updates ci_now_ (held) and staleness_.
  void observe_intensity();

  Config cfg_;
  /// Shared immutable job list the slots' spec pointers resolve into.
  util::Shared<std::vector<JobSpec>> jobs_;
  std::vector<JobSlot> slots_;
  /// Structure-of-arrays hot state (see sim_core.hpp) + the read-only
  /// view of it policies consume.
  SimCore core_;
  JobTable table_;
  std::unordered_map<JobId, std::size_t> index_;
  /// Dense id -> slot table (empty when the id space is too sparse).
  std::vector<std::int32_t> dense_index_;
  std::vector<std::size_t> arrival_order_;  ///< slot indices by submit time
  std::size_t next_arrival_ = 0;

  Duration now_{0.0};
  double ci_true_ = 0.0;  ///< ground truth (accounting)
  double ci_now_ = 0.0;   ///< observed, last-known-value held (policies)
  Duration staleness_;    ///< age of the observed value
  Duration last_fresh_;
  bool ever_fresh_ = false;
  Power budget_now_;
  double last_cap_ = 1.0;
  int free_nodes_ = 0;
  int nodes_down_ = 0;
  std::vector<JobId> pending_;
  std::vector<JobId> running_;
  /// Slot indices parallel to running_ (same order): the integrate and
  /// span kernels iterate this instead of re-resolving ids.
  std::vector<std::size_t> running_slots_;
  std::vector<JobId> suspended_;
  std::vector<JobId> requeued_;  ///< killed by failures, waiting out backoff
  util::TimeSeries ci_history_;  ///< observed intensity, start 0, step tick
  util::TimeSeries::Cursor ci_cursor_;  ///< monotonic ground-truth sampling
  std::size_t next_failure_ = 0;
  std::vector<Duration> repairs_;  ///< pending per-node repair completions
  util::Rng victim_rng_{0};

  /// Discrete-mutation epoch: bumped on every observable discrete change
  /// (phase-list membership, allocations, checkpoints, node up/down).
  /// The span kernel is gated on the epoch being unchanged since just
  /// before the last on_tick — i.e. the policy saw exactly this state
  /// and did nothing.
  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_before_sched_ = ~std::uint64_t{0};
  /// SimulationView::running_epoch: this simulation's own range of a
  /// process-wide sequence, advanced at every running-set change
  /// (bump_running_epoch).
  std::uint64_t running_epoch_;
  void bump_running_epoch();

  /// Batched obs-counter deltas (per-completion events accumulate here
  /// and flush in one relaxed add per span / per tick). Never read by
  /// simulation logic — digest-neutral by construction.
  std::uint32_t pending_completions_ = 0;
  std::uint32_t pending_kills_ = 0;

  /// Set by every intensity accessor: the run is not carbon-blind (see
  /// SimulationResult::carbon_blind).
  mutable bool intensity_read_ = false;

  SimulationResult result_;
  bool ran_ = false;
};

}  // namespace greenhpc::hpcsim

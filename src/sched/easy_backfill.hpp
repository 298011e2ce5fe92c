#pragma once
// EASY backfilling (Lifka '95) — the standard production scheduling
// baseline in Slurm-class RJMS software, and the base algorithm the
// paper's section 3.3 proposes to make carbon-aware.
//
// Head-of-queue jobs start in order while they fit. When the head does not
// fit, it receives a reservation at the earliest time enough nodes are
// projected free (using walltime-based completion estimates), and later
// queued jobs may start immediately iff they cannot delay that
// reservation — either they finish before the reservation (by their own
// walltime) or they use only nodes the reservation does not need.

#include <cstdint>
#include <vector>

#include "hpcsim/policy.hpp"

namespace greenhpc::sched {

/// Projected node-availability timeline entry.
struct ReleaseEvent {
  Duration time;
  int nodes = 0;
};

/// Shadow time and spare nodes of the EASY reservation for a job needing
/// `needed` nodes given `free` nodes now and the release schedule.
struct Reservation {
  Duration shadow;   ///< earliest projected start of the reserved job
  int spare = 0;     ///< nodes free at shadow beyond the reservation's need
};
[[nodiscard]] Reservation compute_reservation(Duration now, int free, int needed,
                                              const std::vector<ReleaseEvent>& releases);

/// Walltime-based release schedule of the currently running jobs,
/// ascending in time; a job past its walltime is projected to release one
/// tick from now. Memoized: a long-running job set makes the projected
/// timeline identical tick after tick, so the sorted vector is reused
/// while the view's running_epoch() is the one it was built at and the
/// clock is before the earliest projected end: the running set and every
/// projected release are then unchanged. Any other call rebuilds it
/// (a fresh cache's epoch 0 is no view's). A reused
/// vector is byte-identical to a fresh cache's, so memoization cannot
/// change any scheduling decision.
class ReleaseCache {
 public:
  /// The release schedule for the view's current running set; reference
  /// valid until the next get() call.
  [[nodiscard]] const std::vector<ReleaseEvent>& get(
      const hpcsim::SimulationView& view);

 private:
  std::vector<ReleaseEvent> releases_;
  std::uint64_t epoch_ = 0;  ///< running_epoch() releases_ was built at
  Duration first_end_;       ///< earliest walltime-projected end in it
};

class EasyBackfillScheduler final : public hpcsim::SchedulingPolicy {
 public:
  /// With `shrink_moldable`, moldable jobs that do not fit at their
  /// natural size are started shrunk-to-fit (within [min_nodes, natural])
  /// instead of waiting — the section-3.2 moldability benefit.
  explicit EasyBackfillScheduler(bool shrink_moldable = false)
      : shrink_moldable_(shrink_moldable) {}
  void on_tick(hpcsim::SimulationView& view) override;
  [[nodiscard]] std::string name() const override {
    return shrink_moldable_ ? "easy-backfill+mold" : "easy-backfill";
  }

  /// EASY is carbon-blind; under a frozen discrete state only the moving
  /// clock can change a decision, and it enters exactly two ways: a
  /// running job crossing its walltime-projected end (its release remaps
  /// to the sliding `now + tick`, which can reorder the timeline and move
  /// the shadow), and backfill's `now + walltime <= shadow` test — which
  /// with no overrun is monotone (flips only toward *not* starting, and
  /// we know nothing started at the frozen state). Hence: quiescent until
  /// the earliest projected end; forever when nothing is pending or no
  /// node is free (no start can succeed regardless of time).
  [[nodiscard]] Duration quiescent_until(
      const hpcsim::SimulationView& view) const override;

  /// Unlike FCFS, backfill can reach past a blocked head, so a new
  /// arrival may genuinely start — except with zero free nodes, where no
  /// start of any kind can succeed.
  [[nodiscard]] bool quiescent_over_arrivals(
      const hpcsim::SimulationView& view) const override {
    return view.free_nodes() == 0;
  }

  /// After an in-span release, the EASY pass acts iff some pending job's
  /// minimal feasible size fits the freed capacity (head start, or any
  /// backfill candidate — the shadow/spare tests only further restrict).
  /// When every pending job still needs more than free_nodes(), all
  /// three phases are proven no-ops and the span may continue.
  [[nodiscard]] bool quiescent_over_release(
      const hpcsim::SimulationView& view) const override;

 private:
  bool shrink_moldable_;
  ReleaseCache releases_;
  std::vector<hpcsim::JobId> scratch_;  ///< queue snapshot, reused across ticks
};

/// Node count for starting the job in slot i when `available` nodes are
/// free and moldable shrinking is allowed: the natural size if it fits,
/// otherwise the largest feasible size within the moldable range (0 =
/// cannot start).
[[nodiscard]] int shrink_to_fit_nodes(const hpcsim::JobTable& t, std::size_t i,
                                      int available);

/// The shared EASY pass over an explicitly ordered candidate list: starts
/// what fits, reserves for the first blocked candidate, backfills the
/// rest. Returns the number of jobs started. Used by both the plain and
/// the carbon-aware schedulers. The caller-held ReleaseCache avoids
/// rebuilding the release schedule when the running set is unchanged.
int easy_pass(hpcsim::SimulationView& view, const std::vector<hpcsim::JobId>& queue,
              bool shrink_moldable, ReleaseCache& releases);

/// Quiescence horizon of easy_pass over a fixed candidate list that just
/// started nothing (see EasyBackfillScheduler::quiescent_until for the
/// argument): forever when the list is empty or no node is free,
/// otherwise the earliest walltime-projected end of a running job, or
/// now when a job already overran its estimate.
[[nodiscard]] Duration easy_quiescent_until(const hpcsim::SimulationView& view,
                                            const std::vector<hpcsim::JobId>& queue);

}  // namespace greenhpc::sched

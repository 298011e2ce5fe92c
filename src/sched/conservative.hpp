#pragma once
// Conservative backfilling: every queued job holds a reservation, and a
// job may only start early if it delays no reservation at all. Stronger
// fairness guarantees than EASY at the cost of lower utilization — the
// other classic RJMS baseline, included so the section-3.3 experiments
// can show the carbon-aware gate composes with either discipline.

#include <vector>

#include "hpcsim/policy.hpp"
#include "sched/easy_backfill.hpp"

namespace greenhpc::sched {

/// Stepwise free-node profile over future time, seeded from the currently
/// running jobs' walltime-based completion estimates. Reservations carve
/// capacity out of the profile; earliest_fit() queries it.
class CapacityProfile {
 public:
  /// Profile starting at `now` with `free` nodes available immediately and
  /// `total` nodes as the capacity ceiling after all running jobs drain.
  CapacityProfile(Duration now, int free, int total);

  /// Register a projected release of `nodes` at `time`.
  void add_release(Duration time, int nodes);
  /// Earliest time >= now at which `nodes` are continuously free for
  /// `duration`. Requires nodes <= total capacity.
  [[nodiscard]] Duration earliest_fit(int nodes, Duration duration) const;
  /// Reserve `nodes` over [start, start + duration), reducing the profile.
  void reserve(Duration start, Duration duration, int nodes);

  /// Free nodes at an instant (test hook).
  [[nodiscard]] int free_at(Duration t) const;

 private:
  void add_delta(Duration time, int delta);

  Duration now_;
  // Sorted breakpoints: capacity changes by `delta` at `time`.
  std::vector<std::pair<Duration, int>> deltas_;
};

class ConservativeBackfillScheduler final : public hpcsim::SchedulingPolicy {
 public:
  void on_tick(hpcsim::SimulationView& view) override;
  [[nodiscard]] std::string name() const override { return "conservative-backfill"; }

 private:
  ReleaseCache releases_;
};

}  // namespace greenhpc::sched

#pragma once
// First-come-first-served scheduling — the simplest RJMS baseline: start
// pending jobs strictly in submission order; block on the first job that
// does not fit.

#include <algorithm>

#include "hpcsim/policy.hpp"

namespace greenhpc::sched {

/// Node count the job in slot i is started (or resumed) with: the
/// requested count for rigid jobs, the natural size (clamped into the
/// malleable range) otherwise.
[[nodiscard]] inline int start_nodes(const hpcsim::JobTable& t, std::size_t i) {
  if (t.kind[i] == hpcsim::JobKind::Rigid) return t.nodes_requested[i];
  return std::clamp(t.nodes_used[i], t.min_nodes[i], t.max_nodes[i]);
}

class FcfsScheduler final : public hpcsim::SchedulingPolicy {
 public:
  void on_tick(hpcsim::SimulationView& view) override;
  [[nodiscard]] std::string name() const override { return "fcfs"; }

  /// FCFS reads neither the clock nor the carbon signal: with the queues,
  /// allocations and free-node count frozen, the head job either fits now
  /// or never will until something discrete changes. Quiescent until the
  /// next discrete event.
  [[nodiscard]] Duration quiescent_until(
      const hpcsim::SimulationView&) const override {
    return hpcsim::quiescent_forever();
  }

  /// Strict submission order shields the queue tail: while the head is
  /// blocked (which it is whenever on_tick took no action with work
  /// pending), arrivals join behind it and can never be reached.
  [[nodiscard]] bool quiescent_over_arrivals(
      const hpcsim::SimulationView& view) const override {
    return !view.pending_jobs().empty();
  }

  /// After an in-span node release, FCFS acts iff the queue head now
  /// fits: on_tick is a pure head-fits loop, so an empty queue or a head
  /// needing more than the (post-release) free count is a proven no-op.
  [[nodiscard]] bool quiescent_over_release(
      const hpcsim::SimulationView& view) const override {
    const std::vector<hpcsim::JobId>& pending = view.pending_jobs();
    if (pending.empty()) return true;
    const hpcsim::JobTable& t = view.job_table();
    return start_nodes(t, view.slot_of(pending.front())) > view.free_nodes();
  }
};

}  // namespace greenhpc::sched

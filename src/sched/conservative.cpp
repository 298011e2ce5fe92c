#include "sched/conservative.hpp"

#include <algorithm>

#include "sched/fcfs.hpp"
#include "util/error.hpp"

namespace greenhpc::sched {

CapacityProfile::CapacityProfile(Duration now, int free, int total) : now_(now) {
  GREENHPC_REQUIRE(free >= 0 && free <= total, "free nodes must be in [0, total]");
  add_delta(now, free);
  // Capacity beyond `free` becomes available through add_release calls;
  // the ceiling is implicit in the deltas the caller registers.
  (void)total;
}

void CapacityProfile::add_delta(Duration time, int delta) {
  const auto it = std::lower_bound(
      deltas_.begin(), deltas_.end(), time,
      [](const std::pair<Duration, int>& p, Duration t) { return p.first < t; });
  if (it != deltas_.end() && it->first == time) {
    it->second += delta;
  } else {
    deltas_.insert(it, {time, delta});
  }
}

void CapacityProfile::add_release(Duration time, int nodes) {
  GREENHPC_REQUIRE(nodes >= 0, "release must be >= 0 nodes");
  add_delta(std::max(time, now_), nodes);
}

Duration CapacityProfile::earliest_fit(int nodes, Duration duration) const {
  GREENHPC_REQUIRE(nodes >= 1, "fit query needs at least one node");
  // Candidate start times are the breakpoints; for each, verify the level
  // stays >= nodes across [start, start + duration).
  for (std::size_t i = 0; i < deltas_.size(); ++i) {
    const Duration start = deltas_[i].first;
    if (start < now_) continue;
    int level = 0;
    for (std::size_t j = 0; j <= i; ++j) level += deltas_[j].second;
    if (level < nodes) continue;
    bool ok = true;
    const Duration end = start + duration;
    for (std::size_t j = i + 1; j < deltas_.size() && deltas_[j].first < end; ++j) {
      level += deltas_[j].second;
      if (level < nodes) {
        ok = false;
        break;
      }
    }
    if (ok) return start;
  }
  // No breakpoint works: after the last breakpoint the level is the total
  // sum; if that suffices the last breakpoint would have matched, so the
  // request can never fit (larger than the machine's steady capacity).
  return now_ + days(3650.0);
}

void CapacityProfile::reserve(Duration start, Duration duration, int nodes) {
  GREENHPC_REQUIRE(nodes >= 1 && duration.seconds() > 0.0, "reservation must be non-empty");
  add_delta(start, -nodes);
  add_delta(start + duration, nodes);
}

void ConservativeBackfillScheduler::on_tick(hpcsim::SimulationView& view) {
  const std::vector<hpcsim::JobId> pending = view.pending_jobs();
  if (pending.empty()) return;

  CapacityProfile profile(view.now(), view.free_nodes(), view.cluster().nodes);
  for (const auto& release : releases_.get(view)) {
    profile.add_release(release.time, release.nodes);
  }

  // Walk the queue in order; every job gets the earliest reservation the
  // profile allows, and starts right away when that reservation is "now".
  const hpcsim::JobTable& t = view.job_table();
  for (hpcsim::JobId id : pending) {
    const std::size_t i = view.slot_of(id);
    const int nodes = start_nodes(t, i);
    const Duration walltime = seconds(t.walltime_s[i]);
    const Duration start = profile.earliest_fit(nodes, walltime);
    if (start <= view.now()) {
      if (view.start(id, nodes)) {
        profile.reserve(view.now(), walltime, nodes);
      }
    } else {
      profile.reserve(start, walltime, nodes);
    }
  }
}

}  // namespace greenhpc::sched

#include "sched/easy_backfill.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "sched/fcfs.hpp"

namespace greenhpc::sched {

const std::vector<ReleaseEvent>& ReleaseCache::get(const hpcsim::SimulationView& view) {
  const Duration now = view.now();
  const std::uint64_t epoch = view.running_epoch();
  if (epoch == epoch_ && now < first_end_) return releases_;
  // An overrunning job's projected release is now + tick, which moves
  // every tick even with the set unchanged; first_end_ <= now then sends
  // every later call here too.
  const hpcsim::JobTable& t = view.job_table();
  releases_.clear();
  Duration first_end = hpcsim::quiescent_forever();
  for (hpcsim::JobId id : view.running_jobs()) {
    const std::size_t i = view.slot_of(id);
    const Duration end = seconds(t.start_s[i]) + seconds(t.walltime_s[i]);
    first_end = std::min(first_end, end);
    releases_.push_back({end <= now ? now + view.cluster().tick : end, t.alloc_nodes[i]});
  }
  std::sort(releases_.begin(), releases_.end(),
            [](const ReleaseEvent& a, const ReleaseEvent& b) { return a.time < b.time; });
  epoch_ = epoch;
  first_end_ = first_end;
  return releases_;
}

Reservation compute_reservation(Duration now, int free, int needed,
                                const std::vector<ReleaseEvent>& releases) {
  Reservation r{now, 0};
  int avail = free;
  if (avail >= needed) {
    r.shadow = now;
    r.spare = avail - needed;
    return r;
  }
  for (const auto& ev : releases) {
    avail += ev.nodes;
    if (avail >= needed) {
      r.shadow = ev.time;
      r.spare = avail - needed;
      return r;
    }
  }
  // Should not happen if the job fits the machine; treat as far future.
  r.shadow = now + days(3650.0);
  r.spare = 0;
  return r;
}

int shrink_to_fit_nodes(const hpcsim::JobTable& t, std::size_t i, int available) {
  const int natural = std::clamp(t.nodes_used[i], t.min_nodes[i], t.max_nodes[i]);
  if (natural <= available) return natural;
  if (t.kind[i] != hpcsim::JobKind::Moldable) return 0;
  if (available >= t.min_nodes[i]) return std::min(available, natural);
  return 0;
}

int easy_pass(hpcsim::SimulationView& view, const std::vector<hpcsim::JobId>& queue,
              bool shrink_moldable, ReleaseCache& releases) {
  static obs::Counter& head_started =
      obs::Registry::global().counter("sched.easy.head_started");
  static obs::Counter& reservations =
      obs::Registry::global().counter("sched.easy.reservations");
  static obs::Counter& backfilled =
      obs::Registry::global().counter("sched.easy.backfilled");
  const hpcsim::JobTable& table = view.job_table();
  int started = 0;
  std::size_t head = 0;
  // Phase 1: start in order while possible.
  while (head < queue.size()) {
    const hpcsim::JobId id = queue[head];
    const std::size_t s = view.slot_of(id);
    int nodes = start_nodes(table, s);
    if (shrink_moldable) {
      const int fitted = shrink_to_fit_nodes(table, s, view.free_nodes());
      if (fitted > 0) nodes = fitted;
    }
    if (view.start(id, nodes)) {
      ++started;
      ++head;
      head_started.add();
    } else {
      break;
    }
  }
  if (head >= queue.size()) return started;

  // Phase 2: reservation for the blocked head.
  reservations.add();
  const hpcsim::JobId blocked = queue[head];
  const int needed = start_nodes(table, view.slot_of(blocked));
  const Reservation res =
      compute_reservation(view.now(), view.free_nodes(), needed, releases.get(view));

  // Phase 3: backfill the remaining queue against the reservation.
  int spare = res.spare;
  for (std::size_t i = head + 1; i < queue.size(); ++i) {
    if (view.free_nodes() == 0) break;  // every candidate needs >= 1 node
    const hpcsim::JobId id = queue[i];
    const std::size_t s = view.slot_of(id);
    int nodes = start_nodes(table, s);
    if (shrink_moldable && nodes > view.free_nodes()) {
      const int fitted = shrink_to_fit_nodes(table, s, view.free_nodes());
      if (fitted > 0) nodes = fitted;
    }
    if (nodes > view.free_nodes()) continue;
    const bool ends_before_shadow =
        view.now() + seconds(table.walltime_s[s]) <= res.shadow;
    const bool fits_in_spare = nodes <= spare;
    if (!ends_before_shadow && !fits_in_spare) continue;
    if (view.start(id, nodes)) {
      ++started;
      backfilled.add();
      if (!ends_before_shadow) spare -= nodes;
    }
  }
  return started;
}

void EasyBackfillScheduler::on_tick(hpcsim::SimulationView& view) {
  scratch_ = view.pending_jobs();  // snapshot: start() mutates the queue
  if (!scratch_.empty()) easy_pass(view, scratch_, shrink_moldable_, releases_);
}

bool EasyBackfillScheduler::quiescent_over_release(
    const hpcsim::SimulationView& view) const {
  const std::vector<hpcsim::JobId>& pending = view.pending_jobs();
  if (pending.empty()) return true;
  const int free = view.free_nodes();
  if (free == 0) return true;
  const hpcsim::JobTable& t = view.job_table();
  for (const hpcsim::JobId id : pending) {
    const std::size_t i = view.slot_of(id);
    // Smallest allocation any phase could attempt: the natural size, or
    // the moldable floor when shrinking is on (shrink_to_fit never goes
    // below min_nodes). A job whose minimum exceeds the free count
    // cannot be started by the head pass or by backfill.
    int minimal = start_nodes(t, i);
    if (shrink_moldable_ && t.kind[i] == hpcsim::JobKind::Moldable) {
      minimal = std::min(minimal, t.min_nodes[i]);
    }
    if (minimal <= free) return false;
  }
  return true;
}

Duration EasyBackfillScheduler::quiescent_until(
    const hpcsim::SimulationView& view) const {
  return easy_quiescent_until(view, view.pending_jobs());
}

Duration easy_quiescent_until(const hpcsim::SimulationView& view,
                              const std::vector<hpcsim::JobId>& queue) {
  if (queue.empty()) return hpcsim::quiescent_forever();
  // Every start needs at least one free node; with none, neither the
  // in-order pass nor backfill can act until something discrete releases
  // nodes (which ends the span through the engine's epoch gate).
  if (view.free_nodes() == 0) return hpcsim::quiescent_forever();
  const hpcsim::JobTable& t = view.job_table();
  double end_min_s = std::numeric_limits<double>::infinity();
  for (const hpcsim::JobId id : view.running_jobs()) {
    const std::size_t i = view.slot_of(id);
    end_min_s = std::min(end_min_s, t.start_s[i] + t.walltime_s[i]);
  }
  const Duration end_min = seconds(end_min_s);
  // A job already past its projected end makes the shadow slide with the
  // clock: opt out (horizon = now keeps the engine tick-exact).
  return end_min > view.now() ? end_min : view.now();
}

}  // namespace greenhpc::sched

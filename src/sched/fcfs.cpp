#include "sched/fcfs.hpp"

namespace greenhpc::sched {

void FcfsScheduler::on_tick(hpcsim::SimulationView& view) {
  // No snapshot needed: a successful start() erases the queue head, so
  // re-reading front() after each start visits exactly the sequence the
  // former snapshot loop visited, without the per-tick copy.
  const hpcsim::JobTable& t = view.job_table();
  const std::vector<hpcsim::JobId>& pending = view.pending_jobs();
  while (!pending.empty()) {
    const hpcsim::JobId id = pending.front();
    if (!view.start(id, start_nodes(t, view.slot_of(id)))) break;  // strict order
  }
}

}  // namespace greenhpc::sched

#include "sched/carbon_aware.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"

namespace greenhpc::sched {

CarbonAwareEasyScheduler::CarbonAwareEasyScheduler(
    Config config, std::shared_ptr<const carbon::Forecaster> forecaster)
    : cfg_(config), forecaster_(std::move(forecaster)), gate_(cfg_, forecaster_) {
  GREENHPC_REQUIRE(cfg_.green_quantile > 0.0 && cfg_.green_quantile < 1.0,
                   "green quantile must be in (0,1)");
  GREENHPC_REQUIRE(cfg_.improvement_factor > 0.0 && cfg_.improvement_factor <= 1.0,
                   "improvement factor must be in (0,1]");
}

const GateSignal& CarbonAwareEasyScheduler::signal_for(
    const hpcsim::SimulationView& view, const std::shared_ptr<const util::TimeSeries>& trace) {
  const Duration tick = view.cluster().tick;
  if (signal_ == nullptr || trace != signal_trace_ || !(tick == signal_tick_)) {
    signal_ = GateSignalCache::global().get(trace, tick, cfg_, forecaster_);
    signal_trace_ = trace;
    signal_tick_ = tick;
    signal_run_ = 0;
  }
  return *signal_;
}

void CarbonAwareEasyScheduler::on_tick(hpcsim::SimulationView& view) {
  attested_at_ = seconds(-1.0);
  attested_with_free_nodes_ = false;
  pending_scratch_ = view.pending_jobs();  // snapshot: start() mutates the queue
  const std::vector<hpcsim::JobId>& pending = pending_scratch_;
  if (pending.empty()) return;

  // Degraded-feed fallback: past the staleness horizon the held value is
  // no longer trustworthy, so drop to carbon-blind EASY rather than gate
  // on a phantom grid state. Attests nothing.
  if (view.carbon_signal_staleness() > cfg_.staleness_horizon) {
    static obs::Counter& stale_ticks =
        obs::Registry::global().counter("sched.carbon.stale_fallback_ticks");
    stale_ticks.add();
    easy_pass(view, pending, /*shrink_moldable=*/false, releases_);
    return;
  }

  // Queue-pressure guard: holding jobs while the backlog is deep only
  // trades wait time for no carbon benefit (the machine will be full
  // either way), so the gate opens under pressure.
  const hpcsim::JobTable& table = view.job_table();
  double backlog_nodes = 0.0;
  const double backlog_limit =
      cfg_.backlog_pressure_limit * static_cast<double>(view.cluster().nodes);
  for (hpcsim::JobId id : pending) {
    backlog_nodes += static_cast<double>(start_nodes(table, view.slot_of(id)));
    if (backlog_nodes > backlog_limit) break;  // only the comparison matters
  }
  const bool pressured = backlog_nodes > backlog_limit;

  // The horizon this tick's decision provably holds to (see the header):
  // only the inputs the decision actually read bound it. The backlog
  // guard reads discrete state only. Under pressure the decision is EASY
  // over the whole queue and reads no intensity, so the gate does not
  // bound it.
  const std::shared_ptr<const util::TimeSeries>& trace = view.intensity_trace();
  const util::TimeSeries& history = view.intensity_history();
  const double c = view.carbon_intensity_now();
  Duration horizon = view.now();
  bool hold_allowed = false;
  static obs::Counter& pressured_ticks =
      obs::Registry::global().counter("sched.carbon.pressured_ticks");
  if (pressured) {
    pressured_ticks.add();
    if (trace != nullptr) horizon = hpcsim::quiescent_forever();
  } else if (trace != nullptr) {
    // No feed: the trace's signal holds the gate at every tick k, the
    // history's length.
    const GateSignal& signal = signal_for(view, trace);
    const std::size_t k = history.size();
    signal_run_ = signal.find(k, signal_run_);
    const GateSignal::Hold hold = signal.runs()[signal_run_].hold;
    if (hold == GateSignal::Hold::Unknown) {
      Duration stable = hpcsim::quiescent_forever();
      hold_allowed = *gate_.greener_period_ahead(history, c, stable, false);
    } else {
      hold_allowed = hold == GateSignal::Hold::Yes;
      // Ticks k + 1 .. end - 1 keep the decision; half a tick of margin
      // keeps the clock's rounding on the safe side.
      const std::size_t end = signal.decision_end(signal_run_);
      horizon = end == GateSignal::kForever
                    ? hpcsim::quiescent_forever()
                    : view.now() + view.cluster().tick * (static_cast<double>(end - k) - 0.5);
    }
  } else {
    // With a feed the history is what the feed delivered: the gate runs
    // here, per tick, and attests nothing.
    Duration stable = hpcsim::quiescent_forever();
    hold_allowed = !gate_.green(history, c) &&
                   *gate_.greener_period_ahead(history, c, stable, false);
  }
  static obs::Counter& hold_ticks =
      obs::Registry::global().counter("sched.carbon.hold_ticks");
  static obs::Counter& held_jobs =
      obs::Registry::global().counter("sched.carbon.held_jobs");
  static obs::Counter& over_budget_releases =
      obs::Registry::global().counter("sched.carbon.released_over_budget");
  if (hold_allowed) hold_ticks.add();

  std::vector<hpcsim::JobId>& eligible = eligible_scratch_;
  eligible.clear();
  eligible.reserve(pending.size());
  std::uint64_t held = 0;
  Duration budget_end = hpcsim::quiescent_forever();
  for (hpcsim::JobId id : pending) {
    const Duration submit = seconds(table.submit_s[view.slot_of(id)]);
    const bool over_budget = view.now() - submit >= cfg_.max_hold;
    if (hold_allowed && !over_budget) {
      ++held;
      budget_end = std::min(budget_end, submit + cfg_.max_hold);
      continue;  // hold for a green period
    }
    if (hold_allowed && over_budget) over_budget_releases.add();
    eligible.push_back(id);
  }
  if (held > 0) {
    held_jobs.add(held);
    // A held job turns eligible once its budget runs out; half a tick of
    // margin keeps the rounded `now - submit` comparison on the safe side.
    horizon = std::min(horizon, budget_end - view.cluster().tick * 0.5);
  }
  if (!eligible.empty()) {
    if (easy_pass(view, eligible, /*shrink_moldable=*/false, releases_) > 0) return;
    horizon = std::min(horizon, easy_quiescent_until(view, eligible));
  }
  attested_at_ = view.now() + view.cluster().tick;
  attested_horizon_ = horizon;
  attested_with_free_nodes_ = view.free_nodes() > 0;
}

bool CarbonAwareEasyScheduler::quiescent_over_release(
    const hpcsim::SimulationView& view) const {
  const std::vector<hpcsim::JobId>& pending = view.pending_jobs();
  if (pending.empty()) return true;
  if (!attested_with_free_nodes_ || pending != pending_scratch_) return false;
  const int free = view.free_nodes();
  const hpcsim::JobTable& table = view.job_table();
  for (const hpcsim::JobId id : eligible_scratch_) {
    if (start_nodes(table, view.slot_of(id)) <= free) return false;
  }
  return true;
}

}  // namespace greenhpc::sched

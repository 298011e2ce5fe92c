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
    : cfg_(config), forecaster_(std::move(forecaster)) {
  GREENHPC_REQUIRE(forecaster_ != nullptr, "carbon-aware scheduler needs a forecaster");
  GREENHPC_REQUIRE(cfg_.green_quantile > 0.0 && cfg_.green_quantile < 1.0,
                   "green quantile must be in (0,1)");
  GREENHPC_REQUIRE(cfg_.improvement_factor > 0.0 && cfg_.improvement_factor <= 1.0,
                   "improvement factor must be in (0,1]");
}

double CarbonAwareEasyScheduler::incremental_threshold(
    const hpcsim::SimulationView& view) {
  const auto history = view.intensity_history().values();
  if (history.empty()) return view.carbon_intensity_now();
  const auto window_ticks = static_cast<std::size_t>(
      cfg_.history_window.seconds() / view.cluster().tick.seconds());
  const std::size_t cap = std::max<std::size_t>(window_ticks, 1);
  if (cap != threshold_window_.capacity() || history.size() < threshold_consumed_ ||
      (threshold_consumed_ > 0 && history[threshold_consumed_ - 1] != threshold_last_)) {
    threshold_window_ = util::SlidingPercentile(cap);
    threshold_consumed_ = 0;
    forecast_memo_.clear();
  }
  // Spans append runs of one value; a run is one window update.
  while (threshold_consumed_ < history.size()) {
    const double v = history[threshold_consumed_];
    std::size_t end = threshold_consumed_ + 1;
    while (end < history.size() && history[end] == v) ++end;
    threshold_window_.push(v, end - threshold_consumed_);
    threshold_consumed_ = end;
    threshold_last_ = v;
  }
  // The window now holds the last min(size, cap) history values.
  return threshold_window_.percentile(cfg_.green_quantile);
}

bool CarbonAwareEasyScheduler::greener_period_ahead(
    const hpcsim::SimulationView& view, Duration& horizon) {
  const util::TimeSeries& hist = view.intensity_history();
  if (hist.size() < 2) {  // nothing to forecast from yet
    horizon = view.now();  // ... until the history grows
    return false;
  }
  const Duration now = hist.end();
  const double target = view.carbon_intensity_now() * cfg_.improvement_factor;
  const Duration half_tick = view.cluster().tick * 0.5;
  std::size_t hour = 0;
  for (Duration h = hours(1.0); h <= cfg_.lookahead; h += hours(1.0), ++hour) {
    if (hour == forecast_memo_.size()) forecast_memo_.push_back({0.0, now});
    ForecastMemo& memo = forecast_memo_[hour];
    // The history only grows and agrees with the memo's before the
    // memo's history end (a fresh simulation clears the memo), so the
    // stable_until contract keeps the value until memo.stable.
    if (!(now < memo.stable)) {
      memo.value = forecaster_->forecast(hist, now, h);
      memo.stable = forecaster_->stable_until(hist, now, h);
    }
    // Map the forecaster's clock (history end) onto the view's, with
    // half a tick of margin against rounding between the two.
    horizon = std::min(horizon, view.now() + (memo.stable - now) - half_tick);
    if (memo.value <= target) return true;
  }
  return false;
}

Duration CarbonAwareEasyScheduler::threshold_horizon(
    const hpcsim::SimulationView& view, bool green_now) const {
  // The gate compares c = carbon_intensity_now() with the interpolated
  // percentile theta = s[lo] * (1 - f) + s[lo + 1] * f of the sorted
  // window s. For nonnegative values the rounded interpolation stays
  // within a few ulps of [s[lo], s[lo + 1]], so with a relative slack far
  // above that:
  //   green is certain while s[lo] >= c (1 + slack), i.e.
  //     count_below(c (1 + slack)) <= lo;
  //   not green is certain while s[lo + 1] <= c (1 - slack), i.e.
  //     count_at_most(c (1 - slack)) >= lo + 2.
  // Each tick appends one value c, evicts at most one old value once the
  // window is full, and moves lo up by at most one only while it is
  // still filling (no eviction then). Each appended c counts against the
  // green margin and not against the other; so either margin, measured
  // in ranks, shrinks by at most one per tick, and a margin of r ranks
  // keeps the gate's answer for the next r ticks.
  constexpr double kSlack = 1e-12;
  const double c = view.carbon_intensity_now();
  const util::SlidingPercentile& window = threshold_window_;
  if (view.intensity_history().size() < 2 || !(c >= 0.0) ||
      window.count_below(0.0) > 0) {
    return view.now();
  }
  const auto lo = static_cast<long>(window.percentile_rank(cfg_.green_quantile));
  const long margin =
      green_now ? lo - static_cast<long>(window.count_below(c * (1.0 + kSlack)))
                : static_cast<long>(window.count_at_most(c * (1.0 - kSlack))) - (lo + 2);
  if (margin <= 0) return view.now();
  return view.now() + view.cluster().tick * (static_cast<double>(margin) + 0.5);
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
  // over the whole queue and reads no intensity, so neither the segment
  // nor the threshold bounds it; the threshold window catches up on the
  // skipped history at the next unpressured tick, to the same state.
  Duration horizon = view.intensity_constant_until();
  bool hold_allowed = false;
  static obs::Counter& pressured_ticks =
      obs::Registry::global().counter("sched.carbon.pressured_ticks");
  if (pressured) {
    pressured_ticks.add();
    if (horizon > view.now()) horizon = hpcsim::quiescent_forever();
  } else {
    const bool green_now = view.carbon_intensity_now() <= incremental_threshold(view);
    if (horizon > view.now()) {
      horizon = std::min(horizon, threshold_horizon(view, green_now));
    }
    // Only hold if the forecast actually promises a greener window.
    hold_allowed = !green_now && greener_period_ahead(view, horizon);
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

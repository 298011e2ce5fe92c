#pragma once
// Carbon-aware scheduling (paper section 3.3): "intelligent carbon-aware
// scheduling plugins ... combined with forecasting techniques that
// leverage historical carbon intensity data ... can intelligently
// backfill submitted jobs with suitable execution times during green
// periods."
//
// CarbonAwareEasyScheduler layers a green gate over the EASY pass:
// during high-carbon periods, jobs whose wait budget still has slack and
// for which the forecaster predicts a greener window within the lookahead
// are held back; everything else is scheduled with plain EASY. Bounded
// holding preserves worst-case wait behaviour.
//
// Span attestation (DESIGN.md, "Span batch kernel"): an on_tick that
// starts nothing also proves how long that stays true at the same
// discrete state. Under backlog pressure the decision is EASY over the
// whole queue, which reads no intensity, so the horizon is EASY's own
// (now with an intensity feed). Otherwise it is the minimum of: the end
// of the current intensity segment (SimulationView::
// intensity_constant_until); the rank-distance bound on the green gate;
// while the forecast is consulted, the Forecaster::stable_until of each
// lookahead hour read; while holding, the earliest hold budget to run
// out; and EASY's own horizon over the jobs it was given. The
// degraded-feed fallback attests nothing.
//
// Observability: the obs counters sched.carbon.hold_ticks,
// sched.carbon.pressured_ticks and sched.carbon.held_jobs count
// *evaluated* ticks — ticks the engine integrates inside a span are not
// counted, so their totals shrink as spans grow. They are not part of
// any digest.

#include <memory>
#include <vector>

#include "carbon/forecast.hpp"
#include "hpcsim/policy.hpp"
#include "sched/easy_backfill.hpp"
#include "util/stats.hpp"

namespace greenhpc::sched {

class CarbonAwareEasyScheduler final : public hpcsim::SchedulingPolicy {
 public:
  struct Config {
    /// A tick is green when the intensity is at or below this quantile of
    /// the trailing history window.
    double green_quantile = 0.40;
    /// History window used for the quantile.
    Duration history_window = days(3.0);
    /// How far ahead the forecaster is consulted for a greener period.
    Duration lookahead = hours(12.0);
    /// Predicted improvement (relative to now) required to keep holding.
    double improvement_factor = 0.90;
    /// Hard bound on added wait per job; beyond this the gate opens.
    Duration max_hold = hours(12.0);
    /// Holding is skipped while the pending queue exceeds this backlog
    /// (expressed as a fraction of cluster nodes worth of requests).
    double backlog_pressure_limit = 2.0;
    /// Once the observed intensity is older than this (feed outage), the
    /// scheduler goes carbon-blind: plain EASY, no green gating. Holding
    /// jobs on a signal this stale risks optimizing against a grid state
    /// that no longer exists.
    Duration staleness_horizon = hours(2.0);
  };

  /// The forecaster must outlive the scheduler.
  CarbonAwareEasyScheduler(Config config, std::shared_ptr<const carbon::Forecaster> forecaster);

  void on_tick(hpcsim::SimulationView& view) override;
  [[nodiscard]] std::string name() const override { return "carbon-easy"; }

  /// Two states need no attestation: nothing pending (on_tick returns
  /// immediately) and zero free nodes (no start can succeed; holds are
  /// aged against submit time, not tick-counted, and the incremental
  /// threshold/history windows consume the intensity history in batch
  /// to the same values). Both end with a discrete event, which ends the
  /// span via the engine's epoch gate. Otherwise the horizon is the one
  /// the last on_tick attested, and only at the tick right after it —
  /// the tick at which the engine asks, having checked that the discrete
  /// state is the one that on_tick saw and left untouched. Anywhere else
  /// the answer is now.
  [[nodiscard]] Duration quiescent_until(
      const hpcsim::SimulationView& view) const override {
    if (view.pending_jobs().empty() || view.free_nodes() == 0) {
      return hpcsim::quiescent_forever();
    }
    return view.now() == attested_at_ ? attested_horizon_ : view.now();
  }

  /// With zero free nodes no start can succeed regardless of what
  /// arrives; hold bookkeeping is recomputed from submit times when the
  /// queue is next examined, so skipped ticks observe nothing.
  [[nodiscard]] bool quiescent_over_arrivals(
      const hpcsim::SimulationView& view) const override {
    return view.free_nodes() == 0;
  }

  /// EASY's release rule over the attested queue. True when nothing is
  /// pending (on_tick returns before touching any state), or when all of
  /// these hold: the pending queue is the one the last attesting on_tick
  /// saw; that on_tick ran with free nodes, so the span runs under the
  /// window it attested (not the zero-free shortcut's forever); and no
  /// job of its eligible list fits the post-release free nodes. The hold
  /// decision reads the pending queue, submit times, the clock and the
  /// intensity but no node count, so through the attested window the
  /// same jobs stay held; the EASY pass over the eligible rest starts
  /// nothing while none of them fits (the shadow and spare tests only
  /// restrict further). Reads discrete state and the snapshots of that
  /// on_tick only.
  [[nodiscard]] bool quiescent_over_release(
      const hpcsim::SimulationView& view) const override;

 private:
  /// Whether the forecaster predicts a greener period within the
  /// lookahead. Lowers `horizon` to the last tick before which every
  /// forecast it consulted is provably unchanged (Forecaster::
  /// stable_until), so the answer is too. Each lookahead hour's forecast
  /// and stability bound are memoised and reused while the history end
  /// is before that bound, which is what the stable_until contract
  /// allows.
  [[nodiscard]] bool greener_period_ahead(const hpcsim::SimulationView& view,
                                          Duration& horizon);
  /// The rank-distance bound on the green gate: a horizon before which
  /// `intensity <= threshold` keeps its current answer, provided every
  /// history value appended meanwhile is the current intensity (the
  /// caller also bounds by intensity_constant_until()). Reads the window
  /// incremental_threshold() just brought up to date.
  [[nodiscard]] Duration threshold_horizon(const hpcsim::SimulationView& view,
                                           bool green_now) const;
  /// The green threshold in force: the green_quantile percentile of the
  /// last history_window of intensity history (the current intensity
  /// before any history exists), kept in a sliding run-length window
  /// instead of a per-tick copy-and-sort of the whole window.
  [[nodiscard]] double incremental_threshold(const hpcsim::SimulationView& view);

  Config cfg_;
  std::shared_ptr<const carbon::Forecaster> forecaster_;
  ReleaseCache releases_;
  // Per-tick queue snapshots, reused across ticks to avoid reallocation.
  std::vector<hpcsim::JobId> pending_scratch_;
  std::vector<hpcsim::JobId> eligible_scratch_;
  // Incremental view of the (append-only) intensity history. It tracks
  // how much history it has consumed and the last value consumed, and
  // rebuilds from scratch (window and forecast memo together) when the
  // view's history is shorter, disagrees at that last value, or the
  // window length changed: a fresh simulation under a reused instance.
  util::SlidingPercentile threshold_window_{1};
  std::size_t threshold_consumed_ = 0;
  double threshold_last_ = 0.0;
  // Forecast memo, one entry per lookahead hour: the value forecast() gave
  // and the stable_until() bound (on the history's clock) it holds to.
  struct ForecastMemo {
    double value = 0.0;
    Duration stable;  ///< reusable while history end < stable
  };
  std::vector<ForecastMemo> forecast_memo_;
  // Quiescence horizon attested by the last on_tick that took no action,
  // and the tick it may be consumed at (that on_tick's now + one tick);
  // every on_tick resets it.
  Duration attested_at_ = seconds(-1.0);
  Duration attested_horizon_;
  // Whether the last on_tick attested with free nodes: the release rule's
  // inputs are then its pending_scratch_ and eligible_scratch_.
  bool attested_with_free_nodes_ = false;
};

}  // namespace greenhpc::sched

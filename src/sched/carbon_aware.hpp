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
// (now with an intensity feed). Otherwise, without a feed, the gate's
// answers are a function of the trace and the clock alone and come from
// the trace's GateSignal (sched/carbon_gate.hpp), built once and shared
// by every case of the trace. The horizon is then the minimum of: the
// next tick at which the signal's hold decision may change; while
// holding, the earliest hold budget to run out; and EASY's own horizon
// over the jobs it was given. Where the signal leaves the forecast to
// the reader (forecasters that promise no stability), the policy
// forecasts itself and attests nothing. With a feed
// (SimulationView::intensity_trace() is null) the gate runs per tick on
// the observed history and attests nothing; so does the degraded-feed
// fallback.
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
#include "sched/carbon_gate.hpp"
#include "sched/easy_backfill.hpp"
#include "util/time_series.hpp"

namespace greenhpc::sched {

class CarbonAwareEasyScheduler final : public hpcsim::SchedulingPolicy {
 public:
  using Config = CarbonEasyConfig;

  /// The forecaster must outlive the scheduler.
  CarbonAwareEasyScheduler(Config config, std::shared_ptr<const carbon::Forecaster> forecaster);

  void on_tick(hpcsim::SimulationView& view) override;
  [[nodiscard]] std::string name() const override { return "carbon-easy"; }

  /// Two states need no attestation: nothing pending (on_tick returns
  /// immediately) and zero free nodes (no start can succeed; holds are
  /// aged against submit time, not tick-counted, and the gate reads the
  /// signal or, per tick, consumes the intensity history in batch to the
  /// same values). Both end with a discrete event, which ends the
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
  /// The no-feed signal of `trace`, from GateSignalCache (kept while the
  /// view shows the same trace and tick).
  [[nodiscard]] const GateSignal& signal_for(const hpcsim::SimulationView& view,
                                             const std::shared_ptr<const util::TimeSeries>& trace);

  Config cfg_;
  std::shared_ptr<const carbon::Forecaster> forecaster_;
  ReleaseCache releases_;
  // Per-tick queue snapshots, reused across ticks to avoid reallocation.
  std::vector<hpcsim::JobId> pending_scratch_;
  std::vector<hpcsim::JobId> eligible_scratch_;
  // The gate on the observed history: per tick with a feed, and for the
  // forecast at ticks the signal leaves to the reader.
  GateEvaluator gate_;
  // The signal of the trace last seen, that trace and tick, and the run
  // index of the last tick read (a search hint).
  std::shared_ptr<const GateSignal> signal_;
  std::shared_ptr<const util::TimeSeries> signal_trace_;
  Duration signal_tick_;
  std::size_t signal_run_ = 0;
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

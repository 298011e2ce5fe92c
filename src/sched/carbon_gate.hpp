#pragma once
// Carbon-EASY's green gate, evaluated once per trace.
//
// The gate (paper section 3.3: carbon-aware backfilling "combined with
// forecasting techniques that leverage historical carbon intensity
// data") answers two questions at a tick: is the current intensity green
// (at or below a quantile of the trailing history), and, if not, does
// the forecaster promise a greener period within the lookahead (so that
// holding jobs may pay off)? Both read only the observed-intensity
// history and the current intensity. Without a degraded feed that
// history is the trace sampled at the simulator's clock, so the answers
// are a function of (trace, tick, gate config, forecaster) and not of
// the schedule: every case that simulates the same trace under the same
// gate reads the same answers.
//
// GateEvaluator is the one implementation of the gate: the threshold
// window, the forecast memo and the fresh-history reset. GateSignal runs
// it once over a trace, stepping from one candidate change point to the
// next (DESIGN.md, "Span batch kernel", gate signal), and stores the
// answers in run form over tick indices. GateSignalCache shares each
// signal among every case of its trace. CarbonAwareEasyScheduler reads
// the signal without a feed and runs the evaluator per tick with one.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "carbon/forecast.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::sched {

/// Configuration of CarbonAwareEasyScheduler (its Config). The gate reads
/// the first four fields; the policy reads the rest.
struct CarbonEasyConfig {
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

/// The green gate over a growing observed-intensity history (start 0,
/// one sample per tick). Incremental: each call consumes only the
/// history appended since the last one. A history that is shorter than
/// the one last seen, disagrees at its last seen value, or has another
/// step is a fresh simulation under a reused evaluator, and restarts the
/// threshold window and the forecast memo.
class GateEvaluator {
 public:
  GateEvaluator(const CarbonEasyConfig& cfg,
                std::shared_ptr<const carbon::Forecaster> forecaster);

  /// Whether `c` is green: at or below the green_quantile percentile of
  /// the last history_window of `history` (`c` itself before any history
  /// exists). The percentile is kept in a sliding run-length window
  /// instead of a per-tick copy-and-sort of the whole window.
  [[nodiscard]] bool green(const util::TimeSeries& history, double c);

  /// How many of the next ticks, up to `limit`, keep the answer green()
  /// just gave for `history` and `c`, provided each appends `c` to the
  /// history: the larger of the rank-margin and the order-statistic
  /// bounds (DESIGN.md, "Span batch kernel", gate signal). 0 promises
  /// nothing beyond this tick.
  [[nodiscard]] std::size_t green_stable_ticks(const util::TimeSeries& history, double c,
                                               bool green_now, std::size_t limit) const;

  /// Whether the forecaster predicts a greener period within the
  /// lookahead: some lookahead hour's forecast at or below
  /// `c * improvement_factor` (false with fewer than two history
  /// samples). Lowers `stable` to the earliest Forecaster::stable_until
  /// among the hours consulted, on the history's clock (the history end
  /// with too little history): the answer holds for every later history
  /// end before it that extends this history, at the same `c`. Each
  /// hour's forecast and bound are memoised and reused while the history
  /// end is before that bound, which is what the stable_until contract
  /// allows. With `promised_only`, gives no answer (nullopt) at the first
  /// hour it would have to forecast whose stable_until promises nothing
  /// beyond the history end, without forecasting it.
  [[nodiscard]] std::optional<bool> greener_period_ahead(const util::TimeSeries& history,
                                                         double c, Duration& stable,
                                                         bool promised_only);

  /// Capacity of the threshold window on a history with this step.
  [[nodiscard]] std::size_t window_capacity(Duration step) const;

 private:
  /// The fresh-history check (see the class comment).
  void sync(const util::TimeSeries& history);

  CarbonEasyConfig cfg_;
  std::shared_ptr<const carbon::Forecaster> forecaster_;
  // Last history seen: its size, last value and step.
  std::size_t seen_ = 0;
  double seen_last_ = 0.0;
  Duration seen_step_;
  // Sliding window over the history, and how much of it has been pushed.
  util::SlidingPercentile window_{1};
  std::size_t consumed_ = 0;
  // Forecast memo, one entry per lookahead hour: the value forecast() gave
  // and the stable_until() bound (on the history's clock) it holds to.
  struct ForecastMemo {
    double value = 0.0;
    Duration stable;  ///< reusable while history end < stable
  };
  std::vector<ForecastMemo> memo_;
};

/// The gate's hold decision at every tick of a simulation over one trace,
/// in run form over tick indices. The green answer enters only through
/// the decision (a green tick never holds), so runs split where the
/// decision changes and nowhere else. Tick k is the k-th tick of a simulation on
/// `tick` without a feed: its clock is 0 plus k additions of `tick`, its
/// observed intensity is the trace sampled there, and its history holds
/// the samples of ticks 0..k-1. The last run holds forever.
class GateSignal {
 public:
  /// The hold decision at a tick.
  enum class Hold : std::uint8_t {
    No,       ///< green, or no greener period ahead
    Yes,      ///< not green and a greener period ahead: hold
    Unknown,  ///< not green; the forecast answer is left to the reader
  };
  /// Ticks [begin, next run's begin) share one decision.
  struct Run {
    std::uint32_t begin = 0;
    Hold hold = Hold::No;
  };
  /// decision_end() of a run whose decision never changes.
  static constexpr std::size_t kForever = std::numeric_limits<std::size_t>::max();

  /// Runs the gate over `trace` (see the class comment and DESIGN.md,
  /// "Span batch kernel"): the same GateEvaluator code on the same
  /// history prefix at every change-point candidate, and nowhere else.
  /// Hold::Unknown marks ticks where a forecast the answer needs promises
  /// no stability (every forecaster but persistence), so the signal would
  /// have to forecast at every such tick, and past the trace end once the
  /// window holds only the last sample but the gate is not green.
  GateSignal(const util::TimeSeries& trace, Duration tick, const CarbonEasyConfig& cfg,
             std::shared_ptr<const carbon::Forecaster> forecaster);

  /// The runs, ascending, the first beginning at tick 0.
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }
  /// Ticks at which the builder evaluated the gate.
  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }

  /// Index of the run holding tick k, searching forward from run `hint`
  /// (any index; one at or before the answer saves the search).
  [[nodiscard]] std::size_t find(std::size_t k, std::size_t hint) const;
  /// First tick after run i whose hold decision differs from run i's:
  /// the next run's begin, or kForever for the last run.
  [[nodiscard]] std::size_t decision_end(std::size_t i) const {
    return i + 1 < runs_.size() ? runs_[i + 1].begin : kForever;
  }

 private:
  std::vector<Run> runs_;
  std::size_t evaluations_ = 0;
};

/// Process-wide store of gate signals: one per (trace, tick, gate config,
/// forecaster), built by the first request and shared afterwards.
/// Thread-safe; a build runs outside the lock, and a raced duplicate is
/// discarded (the first insertion wins, and every caller gets the
/// winner's pointer). An entry holds weak references to its trace and
/// forecaster and is found only through the same owners, so a trace or
/// forecaster freed and replaced by a new one at the same address never
/// reads the old signal; entries whose trace or forecaster is gone are
/// dropped at the next insertion. Counts each inserted signal in
/// sched.carbon.gate_signals_built, adds every build's wall time to the
/// gauge sched.carbon.gate_build_s, and traces each build as the span
/// sched.carbon.gate_build.
class GateSignalCache {
 public:
  [[nodiscard]] std::shared_ptr<const GateSignal> get(
      const std::shared_ptr<const util::TimeSeries>& trace, Duration tick,
      const CarbonEasyConfig& cfg,
      const std::shared_ptr<const carbon::Forecaster>& forecaster);

  /// Number of signals currently held.
  /// Kept for `GateSignalCache.SharesOneSignalPerKeyAndNeverAliasesAFreedTrace`.
  [[nodiscard]] std::size_t size() const;

  static GateSignalCache& global();

 private:
  /// Everything a signal depends on, the gate fields as exact bits.
  struct Key {
    const util::TimeSeries* trace = nullptr;
    const carbon::Forecaster* forecaster = nullptr;
    std::uint64_t tick = 0;
    std::uint64_t green_quantile = 0;
    std::uint64_t history_window = 0;
    std::uint64_t lookahead = 0;
    std::uint64_t improvement_factor = 0;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    std::weak_ptr<const util::TimeSeries> trace;
    std::weak_ptr<const carbon::Forecaster> forecaster;
    std::shared_ptr<const GateSignal> signal;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> map_;
};

}  // namespace greenhpc::sched

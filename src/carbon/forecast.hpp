#pragma once
// Carbon-intensity forecasting (paper section 3.1: "carbon intensity
// prediction can support the job scheduler").
//
// All forecasters share one interface: given the observed history up to
// `now`, predict the intensity at `now + horizon`. Carbon-aware policies
// consume forecasts only through this interface, so the bench can swap a
// perfect oracle for a realistic forecaster and measure the value of
// forecast accuracy (EXP-FORE).

#include <memory>
#include <string>
#include <vector>

#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::carbon {

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Predicted intensity (gCO2/kWh) at absolute time now + horizon, given
  /// `history` — a series whose valid range must include [_, now).
  /// horizon >= 0.
  [[nodiscard]] virtual double forecast(const util::TimeSeries& history, Duration now,
                                        Duration horizon) const = 0;

  /// Display name for experiment tables.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Stability horizon of forecast(history, now, horizon): a time T >= now
  /// such that, for every later now' < T and every history that agrees
  /// with this one before `now`, forecast(history', now', horizon)
  /// returns the same value. Samples at or after `now` are treated as
  /// unknown. Policies use it to prove that a forecast-driven decision
  /// holds over a span of ticks. The default (T = now) promises nothing.
  [[nodiscard]] virtual Duration stable_until(const util::TimeSeries& history,
                                              Duration now, Duration horizon) const {
    (void)history;
    (void)horizon;
    return now;
  }
};

/// Same-time-yesterday persistence: the standard day-ahead baseline for
/// strongly diurnal signals.
class PersistenceForecaster final : public Forecaster {
 public:
  [[nodiscard]] double forecast(const util::TimeSeries& history, Duration now,
                                Duration horizon) const override;
  /// The sampled target moves with `now`, so the forecast holds while the
  /// target stays inside the run of equal samples it reads now. The scan
  /// stops at the first sample that starts at or after `now`.
  [[nodiscard]] Duration stable_until(const util::TimeSeries& history, Duration now,
                                      Duration horizon) const override;
  [[nodiscard]] std::string name() const override { return "persistence-24h"; }
};

/// Trailing moving average over the given window (horizon-independent;
/// captures the level but no diurnal structure).
class MovingAverageForecaster final : public Forecaster {
 public:
  explicit MovingAverageForecaster(Duration window);
  [[nodiscard]] double forecast(const util::TimeSeries& history, Duration now,
                                Duration horizon) const override;
  [[nodiscard]] std::string name() const override;

 private:
  Duration window_;
};

/// Least-squares fit of mean + first two daily harmonics over a trailing
/// training window, evaluated at the forecast time. Captures both level
/// and diurnal shape; robust to the OU weather noise.
class HarmonicForecaster final : public Forecaster {
 public:
  /// `training_window` of history used for the fit (>= 1 day recommended).
  explicit HarmonicForecaster(Duration training_window);
  [[nodiscard]] double forecast(const util::TimeSeries& history, Duration now,
                                Duration horizon) const override;
  [[nodiscard]] std::string name() const override { return "harmonic-ls"; }

 private:
  Duration window_;
};

/// Exponentially weighted moving average of the history: like the moving
/// average but with recency weighting, so it tracks weather-regime shifts
/// faster at equal effective window length. Horizon-independent.
class EwmaForecaster final : public Forecaster {
 public:
  /// Weight halves every `half_life` of history age.
  explicit EwmaForecaster(Duration half_life);
  [[nodiscard]] double forecast(const util::TimeSeries& history, Duration now,
                                Duration horizon) const override;
  [[nodiscard]] std::string name() const override;

 private:
  Duration half_life_;
};

/// Weighted combination of member forecasters. The classic cheap
/// ensemble: averaging a level tracker (EWMA) with a shape tracker
/// (persistence or harmonic) is robust across regimes.
class EnsembleForecaster final : public Forecaster {
 public:
  struct Member {
    std::shared_ptr<const Forecaster> forecaster;
    double weight = 1.0;
  };
  /// Members must be non-null with positive total weight.
  explicit EnsembleForecaster(std::vector<Member> members);
  [[nodiscard]] double forecast(const util::TimeSeries& history, Duration now,
                                Duration horizon) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::vector<Member> members_;
  double total_weight_ = 0.0;
};

/// Perfect-knowledge oracle over a ground-truth series; upper-bounds the
/// value any forecaster can deliver to a policy.
class OracleForecaster final : public Forecaster {
 public:
  /// Keeps a copy of the ground truth so the oracle stays valid independent
  /// of the caller's trace lifetime.
  explicit OracleForecaster(util::TimeSeries truth);
  [[nodiscard]] double forecast(const util::TimeSeries& history, Duration now,
                                Duration horizon) const override;
  [[nodiscard]] std::string name() const override { return "oracle"; }

 private:
  util::TimeSeries truth_;
};

/// Evaluate forecaster accuracy: mean absolute percentage error over all
/// (now, horizon) pairs with `now` stepping through the evaluation span
/// and a fixed `horizon`. The first `warmup` of the series is history-only.
[[nodiscard]] double evaluate_mape(const Forecaster& forecaster, const util::TimeSeries& truth,
                                   Duration warmup, Duration horizon);

}  // namespace greenhpc::carbon

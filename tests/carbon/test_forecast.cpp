#include "carbon/forecast.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "carbon/grid_model.hpp"
#include "util/error.hpp"

namespace greenhpc::carbon {
namespace {

/// Pure sinusoid with a 24h period around `mean`.
util::TimeSeries sinusoid(double mean, double amp, Duration span,
                          Duration step = minutes(30.0)) {
  util::TimeSeries ts(seconds(0.0), step);
  const auto n = static_cast<std::size_t>(span.seconds() / step.seconds());
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * step.seconds();
    ts.push_back(mean + amp * std::sin(2.0 * std::numbers::pi * t / 86400.0));
  }
  return ts;
}

TEST(Persistence, ExactOnPerfectlyPeriodicSignal) {
  const auto truth = sinusoid(300.0, 80.0, days(5.0));
  PersistenceForecaster f;
  const double err = evaluate_mape(f, truth, days(2.0), hours(6.0));
  EXPECT_LT(err, 0.002);
}

TEST(Persistence, HandlesHorizonsBeyondOneDay) {
  const auto truth = sinusoid(300.0, 80.0, days(6.0));
  PersistenceForecaster f;
  const util::TimeSeries hist = truth.slice(0, truth.size() / 2);
  const double pred = f.forecast(hist, hist.end(), hours(30.0));
  // Same time of day 30h ahead equals value 6h ahead of now yesterday.
  EXPECT_NEAR(pred, truth.sample_at_clamped(hist.end() + hours(30.0)), 1.0);
}

/// Hourly history over [0, hours), value v(i) at sample i.
template <class F>
util::TimeSeries hourly(int n_hours, F v) {
  util::TimeSeries ts(seconds(0.0), hours(1.0));
  for (int i = 0; i < n_hours; ++i) ts.push_back(v(i));
  return ts;
}

/// `history` continued past its end with values nothing else uses: the
/// samples a forecaster must treat as unknown.
util::TimeSeries extended(const util::TimeSeries& history, int extra_hours) {
  util::TimeSeries ts = history;
  for (int i = 0; i < extra_hours; ++i) ts.push_back(-1000.0 - i);
  return ts;
}

TEST(Persistence, StableUntilEndsAtTheEdgeOfTheSampledRun) {
  // Samples 26..29 share one value; the 3h-ahead forecast at now = 48h
  // reads sample 27, so it holds while the target stays below 30h.
  const auto hist = hourly(48, [](int i) { return i >= 26 && i < 30 ? 50.0 : 100.0 + i; });
  const PersistenceForecaster f;
  const Duration now = hist.end();
  const Duration h = hours(3.0);
  const Duration until = f.stable_until(hist, now, h);
  EXPECT_EQ(until, now + hours(3.0));
  const auto ext = extended(hist, 12);
  const double at_now = f.forecast(hist, now, h);
  for (double dt = 0.0; dt < 3.0; dt += 0.25) {
    EXPECT_EQ(f.forecast(ext, now + hours(dt), h), at_now) << "dt " << dt;
  }
  EXPECT_NE(f.forecast(ext, until, h), at_now);  // the bound is tight
  // From the run's last sample (29h, read 5h ahead) it holds one hour.
  EXPECT_EQ(f.stable_until(hist, now, hours(5.0)), now + hours(1.0));
}

TEST(Persistence, StableUntilStopsBeforeNow) {
  // A flat history: the run reaches the last known sample and stops
  // there — what comes after now is unknown.
  const auto hist = hourly(48, [](int) { return 80.0; });
  const PersistenceForecaster f;
  const Duration now = hist.end();
  const Duration until = f.stable_until(hist, now, hours(12.0));
  EXPECT_EQ(until, now + hours(12.0));  // the target reaches now
  const auto ext = extended(hist, 24);
  EXPECT_EQ(f.forecast(ext, until - hours(0.5), hours(12.0)), 80.0);
  EXPECT_NE(f.forecast(ext, until, hours(12.0)), 80.0);
  // History samples past now are ignored, so a history with the same
  // past gives the same answer.
  EXPECT_EQ(f.stable_until(ext, now, hours(12.0)), until);
}

TEST(Persistence, StableUntilOptsOutAtDayEdgesAndWithoutHistory) {
  const auto hist = hourly(48, [](int) { return 80.0; });
  const PersistenceForecaster f;
  const Duration now = hist.end();
  // Horizons at whole days put the target one day back or right at now,
  // where rounding could change how many days the forecast steps back.
  EXPECT_EQ(f.stable_until(hist, now, hours(0.0)), now);
  EXPECT_EQ(f.stable_until(hist, now, hours(24.0)), now);
  EXPECT_EQ(f.stable_until(hist, now, hours(23.5)), now);  // within a sample of now
  EXPECT_EQ(f.stable_until(util::TimeSeries(seconds(0.0), hours(1.0)), now, hours(3.0)),
            now);
}

TEST(Persistence, StableUntilCoversTargetsBeforeTheHistory) {
  // 6h of history: the 1h-ahead target (now - 23h) is before the series,
  // so the forecast clamps to sample 0, and holds through the run it
  // starts.
  const auto hist = hourly(6, [](int i) { return i < 3 ? 40.0 : 90.0; });
  const PersistenceForecaster f;
  const Duration now = hist.end();
  const Duration until = f.stable_until(hist, now, hours(1.0));
  EXPECT_EQ(until, now + hours(20.0));  // the target reaches 3h
  const auto ext = extended(hist, 30);
  EXPECT_EQ(f.forecast(ext, until - hours(0.5), hours(1.0)), 40.0);
  EXPECT_EQ(f.forecast(ext, until, hours(1.0)), 90.0);
}

TEST(Forecasters, OnlyPersistenceAttestsStability) {
  const auto hist = hourly(72, [](int) { return 80.0; });
  const Duration now = hist.end();
  const Duration h = hours(3.0);
  EXPECT_EQ(HarmonicForecaster(days(1.0)).stable_until(hist, now, h), now);
  EXPECT_EQ(EwmaForecaster(hours(6.0)).stable_until(hist, now, h), now);
  EXPECT_EQ(MovingAverageForecaster(hours(6.0)).stable_until(hist, now, h), now);
  EXPECT_EQ(OracleForecaster(hist).stable_until(hist, now, h), now);
  const EnsembleForecaster ensemble(
      {{std::make_shared<PersistenceForecaster>(), 1.0},
       {std::make_shared<EwmaForecaster>(hours(6.0)), 1.0}});
  EXPECT_EQ(ensemble.stable_until(hist, now, h), now);
  EXPECT_GT(PersistenceForecaster().stable_until(hist, now, h), now);
}

TEST(MovingAverage, FlatSignalIsExact) {
  const auto truth = sinusoid(250.0, 0.0, days(3.0));
  MovingAverageForecaster f(hours(12.0));
  const double err = evaluate_mape(f, truth, days(1.0), hours(1.0));
  EXPECT_LT(err, 1e-9);
}

TEST(MovingAverage, NameIncludesWindow) {
  MovingAverageForecaster f(hours(6.0));
  EXPECT_EQ(f.name(), "moving-average-6h");
}

TEST(Harmonic, RecoversSinusoidWellAheadOfPersistenceOnNoise) {
  // On a periodic signal + noise, the harmonic fit should beat the
  // moving average clearly.
  GridModel model(Region::Germany, 17);
  const auto truth = model.generate(seconds(0.0), days(10.0), minutes(30.0));
  HarmonicForecaster harmonic(days(3.0));
  MovingAverageForecaster mavg(hours(24.0));
  const double err_h = evaluate_mape(harmonic, truth, days(4.0), hours(6.0));
  const double err_m = evaluate_mape(mavg, truth, days(4.0), hours(6.0));
  EXPECT_LT(err_h, err_m * 1.05);
  EXPECT_LT(err_h, 0.30);
}

TEST(Harmonic, ExactOnNoiselessHarmonicSignal) {
  const auto truth = sinusoid(300.0, 60.0, days(6.0));
  HarmonicForecaster f(days(2.0));
  const double err = evaluate_mape(f, truth, days(3.0), hours(12.0));
  // The level-anchoring term introduces a small zero-order-hold bias even
  // on a noiseless signal; accuracy remains ~2%.
  EXPECT_LT(err, 0.02);
}

TEST(Ewma, FlatSignalIsExact) {
  const auto truth = sinusoid(250.0, 0.0, days(3.0));
  EwmaForecaster f(hours(6.0));
  const double err = evaluate_mape(f, truth, days(1.0), hours(1.0));
  EXPECT_LT(err, 1e-9);
}

TEST(Ewma, TracksLevelShiftsFasterThanMovingAverage) {
  // Step signal: 200 for two days, then 400. Shortly after the step the
  // EWMA (recency-weighted) must sit closer to 400 than the same-length
  // moving average.
  util::TimeSeries ts(seconds(0.0), hours(1.0));
  for (int i = 0; i < 96; ++i) ts.push_back(i < 48 ? 200.0 : 400.0);
  EwmaForecaster ewma(hours(8.0));
  MovingAverageForecaster mavg(hours(24.0));
  const Duration now = hours(60.0);  // 12h after the step
  const double e = ewma.forecast(ts, now, hours(1.0));
  const double m = mavg.forecast(ts, now, hours(1.0));
  EXPECT_GT(e, m);
  EXPECT_GT(e, 320.0);  // ~329 analytically: 400 - 200 * 2^(-12h/8h)
}

TEST(Ewma, NameAndPreconditions) {
  EXPECT_EQ(EwmaForecaster(hours(6.0)).name(), "ewma-6h");
  EXPECT_THROW(EwmaForecaster(seconds(0.0)), greenhpc::InvalidArgument);
}

TEST(Ensemble, AveragesMembers) {
  const auto truth = sinusoid(300.0, 0.0, days(2.0));
  auto a = std::make_shared<MovingAverageForecaster>(hours(6.0));
  auto b = std::make_shared<EwmaForecaster>(hours(6.0));
  EnsembleForecaster ens({{a, 1.0}, {b, 3.0}});
  const double v = ens.forecast(truth, days(1.0), hours(1.0));
  EXPECT_NEAR(v, 300.0, 1e-9);  // both members agree on a flat signal
  EXPECT_NE(ens.name().find("ensemble("), std::string::npos);
}

TEST(Ensemble, BetweenItsMembers) {
  GridModel model(Region::Germany, 21);
  const auto truth = model.generate(seconds(0.0), days(8.0), hours(1.0));
  auto level = std::make_shared<EwmaForecaster>(hours(12.0));
  auto shape = std::make_shared<PersistenceForecaster>();
  EnsembleForecaster ens({{level, 1.0}, {shape, 1.0}});
  const Duration now = days(5.0);
  const double v_l = level->forecast(truth, now, hours(6.0));
  const double v_s = shape->forecast(truth, now, hours(6.0));
  const double v_e = ens.forecast(truth, now, hours(6.0));
  EXPECT_GE(v_e, std::min(v_l, v_s) - 1e-9);
  EXPECT_LE(v_e, std::max(v_l, v_s) + 1e-9);
}

TEST(Ensemble, Preconditions) {
  EXPECT_THROW(EnsembleForecaster({}), greenhpc::InvalidArgument);
  EXPECT_THROW(EnsembleForecaster({{nullptr, 1.0}}), greenhpc::InvalidArgument);
  auto a = std::make_shared<PersistenceForecaster>();
  EXPECT_THROW(EnsembleForecaster({{a, 0.0}}), greenhpc::InvalidArgument);
}

TEST(Oracle, PerfectByConstruction) {
  GridModel model(Region::Finland, 3);
  const auto truth = model.generate(seconds(0.0), days(7.0), hours(1.0));
  OracleForecaster f(truth);
  const double err = evaluate_mape(f, truth, days(1.0), hours(8.0));
  EXPECT_DOUBLE_EQ(err, 0.0);
}

TEST(Oracle, ClampsBeyondTruth) {
  const auto truth = sinusoid(100.0, 10.0, days(1.0));
  OracleForecaster f(truth);
  const double beyond = f.forecast(truth, truth.end(), days(5.0));
  EXPECT_DOUBLE_EQ(beyond, truth.at(truth.size() - 1));
}

TEST(Forecasters, OracleBeatsRealForecastersOnNoisyTrace) {
  GridModel model(Region::UnitedKingdom, 23);
  const auto truth = model.generate(seconds(0.0), days(10.0), hours(1.0));
  const OracleForecaster oracle(truth);
  const PersistenceForecaster persistence;
  const double err_o = evaluate_mape(oracle, truth, days(3.0), hours(12.0));
  const double err_p = evaluate_mape(persistence, truth, days(3.0), hours(12.0));
  EXPECT_LT(err_o, err_p);
}

TEST(Forecasters, NegativeHorizonThrows) {
  const auto truth = sinusoid(100.0, 10.0, days(2.0));
  PersistenceForecaster p;
  EXPECT_THROW((void)p.forecast(truth, days(1.0), hours(-1.0)),
               greenhpc::InvalidArgument);
  OracleForecaster o(truth);
  EXPECT_THROW((void)o.forecast(truth, days(1.0), hours(-1.0)),
               greenhpc::InvalidArgument);
}

TEST(Forecasters, ConstructionPreconditions) {
  EXPECT_THROW(MovingAverageForecaster(seconds(0.0)), greenhpc::InvalidArgument);
  EXPECT_THROW(HarmonicForecaster(minutes(10.0)), greenhpc::InvalidArgument);
  EXPECT_THROW(OracleForecaster(util::TimeSeries(seconds(0.0), hours(1.0))),
               greenhpc::InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::carbon

#include "carbon/forecast.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <sstream>

#include "util/error.hpp"

namespace greenhpc::carbon {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kDaySeconds = 86400.0;
}  // namespace

double PersistenceForecaster::forecast(const util::TimeSeries& history, Duration now,
                                       Duration horizon) const {
  GREENHPC_REQUIRE(horizon.seconds() >= 0.0, "forecast horizon must be >= 0");
  // Same time of day, one day earlier. If the target wraps past `now`
  // (horizon > 24h), step back whole days until we land in history.
  Duration target = now + horizon - days(1);
  while (target >= now) target -= days(1);
  return history.sample_at_clamped(target);
}

Duration PersistenceForecaster::stable_until(const util::TimeSeries& history,
                                             Duration now, Duration horizon) const {
  GREENHPC_REQUIRE(horizon.seconds() >= 0.0, "forecast horizon must be >= 0");
  if (history.empty()) return now;
  Duration target = now + horizon - days(1);
  while (target >= now) target -= days(1);
  // A target within one sample of either end of [now - 1 day, now) sits
  // where rounding could change how many days forecast() steps back
  // (horizon near a whole number of days): promise nothing there.
  const Duration step = history.step();
  if (target >= now - step || target < now - days(1) + step) return now;
  if (target >= history.end()) return now;  // reads the clamped last sample
  // Below the series the forecast clamps to sample 0, which then runs on.
  const std::size_t first = target < history.start() ? 0 : history.index_at(target);
  const std::span<const double> v = history.values();
  std::size_t k = first + 1;
  const double start_s = history.start().seconds();
  while (k < v.size() && v[k] == v[first] &&
         seconds(start_s + static_cast<double>(k) * step.seconds()) < now) {
    ++k;
  }
  // Samples [first, k) hold the same value: the target may advance up to
  // the start of sample k, and it advances in step with now.
  const Duration run_end = seconds(start_s + static_cast<double>(k) * step.seconds());
  return now + (run_end - target);
}

MovingAverageForecaster::MovingAverageForecaster(Duration window) : window_(window) {
  GREENHPC_REQUIRE(window.seconds() > 0.0, "moving-average window must be positive");
}

std::string MovingAverageForecaster::name() const {
  std::ostringstream os;
  os << "moving-average-" << window_.hours() << "h";
  return os.str();
}

double MovingAverageForecaster::forecast(const util::TimeSeries& history, Duration now,
                                         Duration horizon) const {
  GREENHPC_REQUIRE(horizon.seconds() >= 0.0, "forecast horizon must be >= 0");
  Duration from = now - window_;
  if (from < history.start()) from = history.start();
  Duration to = now;
  if (to > history.end()) to = history.end();
  GREENHPC_REQUIRE(from < to, "moving-average forecaster needs history before now");
  return history.mean_over(from, to);
}

HarmonicForecaster::HarmonicForecaster(Duration training_window) : window_(training_window) {
  GREENHPC_REQUIRE(training_window.seconds() >= 3600.0,
                   "harmonic forecaster needs at least 1h of training data");
}

double HarmonicForecaster::forecast(const util::TimeSeries& history, Duration now,
                                    Duration horizon) const {
  GREENHPC_REQUIRE(horizon.seconds() >= 0.0, "forecast horizon must be >= 0");
  Duration from = now - window_;
  if (from < history.start()) from = history.start();
  Duration to = now;
  if (to > history.end()) to = history.end();
  GREENHPC_REQUIRE(from < to, "harmonic forecaster needs history before now");

  // Basis: [1, cos w t, sin w t, cos 2w t, sin 2w t], w = 2*pi/day.
  // Solve the 5x5 normal equations by Gaussian elimination with partial
  // pivoting; the system is tiny and well-conditioned for >= 1 day of data.
  constexpr std::size_t kBasis = 5;
  std::array<std::array<double, kBasis + 1>, kBasis> normal{};
  const std::size_t first = history.index_at(from);
  const std::size_t last = history.index_at(to - seconds(history.step().seconds() / 2));
  for (std::size_t i = first; i <= last; ++i) {
    const double t = history.start().seconds() + history.step().seconds() * static_cast<double>(i);
    const double w = kTwoPi * t / kDaySeconds;
    const std::array<double, kBasis> phi = {1.0, std::cos(w), std::sin(w), std::cos(2 * w),
                                            std::sin(2 * w)};
    const double y = history.at(i);
    for (std::size_t r = 0; r < kBasis; ++r) {
      for (std::size_t c = 0; c < kBasis; ++c) normal[r][c] += phi[r] * phi[c];
      normal[r][kBasis] += phi[r] * y;
    }
  }
  // Gaussian elimination.
  for (std::size_t col = 0; col < kBasis; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < kBasis; ++r) {
      if (std::fabs(normal[r][col]) > std::fabs(normal[pivot][col])) pivot = r;
    }
    std::swap(normal[col], normal[pivot]);
    const double diag = normal[col][col];
    if (std::fabs(diag) < 1e-12) continue;  // degenerate basis (tiny window)
    for (std::size_t r = 0; r < kBasis; ++r) {
      if (r == col) continue;
      const double f = normal[r][col] / diag;
      for (std::size_t c = col; c <= kBasis; ++c) normal[r][c] -= f * normal[col][c];
    }
  }
  std::array<double, kBasis> coef{};
  for (std::size_t r = 0; r < kBasis; ++r) {
    coef[r] = std::fabs(normal[r][r]) < 1e-12 ? 0.0 : normal[r][kBasis] / normal[r][r];
  }
  auto fit_at = [&](double t_abs) {
    const double w = kTwoPi * t_abs / kDaySeconds;
    return coef[0] + coef[1] * std::cos(w) + coef[2] * std::sin(w) +
           coef[3] * std::cos(2 * w) + coef[4] * std::sin(2 * w);
  };
  const double prediction = fit_at((now + horizon).seconds());
  // Level anchoring: weather regimes (the OU component of real traces)
  // shift the level away from the windowed fit for days at a time. Blend
  // in the current residual with an exponential decay so short horizons
  // track the regime while long horizons fall back to the harmonic shape.
  const double last_observed =
      history.sample_at_clamped(to - seconds(history.step().seconds() / 2));
  const double residual = last_observed - fit_at(to.seconds());
  constexpr double kAnchorTauSeconds = 36.0 * 3600.0;
  return prediction + residual * std::exp(-horizon.seconds() / kAnchorTauSeconds);
}

EwmaForecaster::EwmaForecaster(Duration half_life) : half_life_(half_life) {
  GREENHPC_REQUIRE(half_life.seconds() > 0.0, "EWMA half-life must be positive");
}

std::string EwmaForecaster::name() const {
  std::ostringstream os;
  os << "ewma-" << half_life_.hours() << "h";
  return os.str();
}

double EwmaForecaster::forecast(const util::TimeSeries& history, Duration now,
                                Duration horizon) const {
  GREENHPC_REQUIRE(horizon.seconds() >= 0.0, "forecast horizon must be >= 0");
  GREENHPC_REQUIRE(!history.empty() && history.start() < now,
                   "EWMA forecaster needs history before now");
  const double step = history.step().seconds();
  const double decay = std::exp2(-step / half_life_.seconds());
  // Walk backwards from the newest sample at or before `now`; stop once
  // additional samples carry negligible weight (5 half-lives).
  const std::size_t newest =
      history.index_at(std::min(now - seconds(step / 2),
                                history.end() - seconds(step / 2)));
  double weighted = 0.0;
  double weight_sum = 0.0;
  double w = 1.0;
  for (std::size_t back = 0; back <= newest; ++back) {
    weighted += w * history.at(newest - back);
    weight_sum += w;
    w *= decay;
    if (w < std::exp2(-5.0)) break;
  }
  return weighted / weight_sum;
}

EnsembleForecaster::EnsembleForecaster(std::vector<Member> members)
    : members_(std::move(members)) {
  GREENHPC_REQUIRE(!members_.empty(), "ensemble needs at least one member");
  for (const auto& m : members_) {
    GREENHPC_REQUIRE(m.forecaster != nullptr, "ensemble member must not be null");
    GREENHPC_REQUIRE(m.weight > 0.0, "ensemble weights must be positive");
    total_weight_ += m.weight;
  }
}

std::string EnsembleForecaster::name() const {
  std::string label = "ensemble(";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i) label += "+";
    label += members_[i].forecaster->name();
  }
  return label + ")";
}

double EnsembleForecaster::forecast(const util::TimeSeries& history, Duration now,
                                    Duration horizon) const {
  double total = 0.0;
  for (const auto& m : members_) {
    total += m.weight * m.forecaster->forecast(history, now, horizon);
  }
  return total / total_weight_;
}

OracleForecaster::OracleForecaster(util::TimeSeries truth) : truth_(std::move(truth)) {
  GREENHPC_REQUIRE(!truth_.empty(), "oracle requires a non-empty truth series");
}

double OracleForecaster::forecast(const util::TimeSeries& /*history*/, Duration now,
                                  Duration horizon) const {
  GREENHPC_REQUIRE(horizon.seconds() >= 0.0, "forecast horizon must be >= 0");
  return truth_.sample_at_clamped(now + horizon);
}

double evaluate_mape(const Forecaster& forecaster, const util::TimeSeries& truth,
                     Duration warmup, Duration horizon) {
  GREENHPC_REQUIRE(truth.start() + warmup < truth.end(), "warmup exceeds series");
  std::vector<double> actual, predicted;
  const Duration step = truth.step();
  for (Duration now = truth.start() + warmup; now + horizon < truth.end(); now += step) {
    const util::TimeSeries hist =
        truth.slice(0, truth.index_at(now - seconds(step.seconds() / 2)) + 1);
    predicted.push_back(forecaster.forecast(hist, now, horizon));
    actual.push_back(truth.sample_at(now + horizon));
  }
  return util::mape(actual, predicted);
}

}  // namespace greenhpc::carbon

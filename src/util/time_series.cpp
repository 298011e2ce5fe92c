#include "util/time_series.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace greenhpc::util {

TimeSeries::TimeSeries(Duration start, Duration step) : start_(start), step_(step) {
  GREENHPC_REQUIRE(step.seconds() > 0.0, "time series step must be positive");
}

TimeSeries::TimeSeries(Duration start, Duration step, std::vector<double> values)
    : start_(start), step_(step), values_(std::move(values)) {
  GREENHPC_REQUIRE(step.seconds() > 0.0, "time series step must be positive");
}

Duration TimeSeries::end() const {
  return start_ + step_ * static_cast<double>(values_.size());
}

double TimeSeries::at(std::size_t i) const {
  GREENHPC_REQUIRE(i < values_.size(), "time series index out of range");
  return values_[i];
}

std::size_t TimeSeries::index_at(Duration t) const {
  GREENHPC_REQUIRE(t >= start_ && t < end(), "time out of series range");
  const auto idx =
      static_cast<std::size_t>((t.seconds() - start_.seconds()) / step_.seconds());
  return std::min(idx, values_.size() - 1);
}

double TimeSeries::sample_at(Duration t) const { return values_[index_at(t)]; }

Duration TimeSeries::segment_end(Duration t) const {
  GREENHPC_REQUIRE(!values_.empty(), "segment_end on empty series");
  if (t < start_) return start_ + step_;
  if (t < end()) {
    return start_ + seconds(static_cast<double>(index_at(t) + 1) * step_.seconds());
  }
  return seconds(std::numeric_limits<double>::infinity());
}

double TimeSeries::sample_at_clamped(Duration t) const {
  GREENHPC_REQUIRE(!values_.empty(), "sample_at_clamped on empty series");
  if (t < start_) return values_.front();
  if (t >= end()) return values_.back();
  return values_[index_at(t)];
}

double TimeSeries::sample_at_clamped(Duration t, Cursor& cursor) const {
  GREENHPC_REQUIRE(!values_.empty(), "sample_at_clamped on empty series");
  if (t < start_) return values_.front();
  if (t >= end()) return values_.back();
  const double rel = t.seconds() - start_.seconds();
  const double step = step_.seconds();
  std::size_t i = std::min(cursor.idx_, values_.size() - 1);
  if (rel < static_cast<double>(i) * step ||
      rel >= static_cast<double>(i + 2) * step) {
    // Backward or multi-interval jump: recompute directly (identical to
    // index_at, so the cursor never changes which sample is returned).
    i = static_cast<std::size_t>(rel / step);
  } else if (rel >= static_cast<double>(i + 1) * step) {
    ++i;  // the common case: the caller moved into the next interval
  }
  i = std::min(i, values_.size() - 1);
  cursor.idx_ = i;
  return values_[i];
}

double TimeSeries::integrate(Duration t0, Duration t1) const {
  GREENHPC_REQUIRE(t0 <= t1, "integrate bounds inverted");
  GREENHPC_REQUIRE(t0 >= start_ && t1 <= end(), "integrate bounds out of range");
  if (t0 == t1) return 0.0;
  const double step = step_.seconds();
  const double rel0 = t0.seconds() - start_.seconds();
  const double rel1 = t1.seconds() - start_.seconds();
  auto first = static_cast<std::size_t>(rel0 / step);
  auto last = static_cast<std::size_t>((rel1 - 1e-12) / step);
  first = std::min(first, values_.size() - 1);
  last = std::min(last, values_.size() - 1);
  if (first == last) return values_[first] * (rel1 - rel0);
  double total = values_[first] * (static_cast<double>(first + 1) * step - rel0);
  for (std::size_t i = first + 1; i < last; ++i) total += values_[i] * step;
  total += values_[last] * (rel1 - static_cast<double>(last) * step);
  return total;
}

double TimeSeries::mean_over(Duration t0, Duration t1) const {
  GREENHPC_REQUIRE(t0 < t1, "mean_over requires a non-empty window");
  return integrate(t0, t1) / (t1 - t0).seconds();
}

TimeSeries TimeSeries::downsample_mean(std::size_t factor) const {
  GREENHPC_REQUIRE(factor >= 1, "downsample factor must be >= 1");
  TimeSeries out(start_, step_ * static_cast<double>(factor));
  for (std::size_t i = 0; i < values_.size(); i += factor) {
    const std::size_t count = std::min(factor, values_.size() - i);
    double sum = 0.0;
    for (std::size_t j = 0; j < count; ++j) sum += values_[i + j];
    out.push_back(sum / static_cast<double>(count));
  }
  return out;
}

TimeSeries TimeSeries::daily_mean() const {
  const double per_day = 86400.0 / step_.seconds();
  GREENHPC_REQUIRE(per_day >= 1.0 && std::fabs(per_day - std::round(per_day)) < 1e-9,
                   "daily_mean requires a step dividing 24h");
  return downsample_mean(static_cast<std::size_t>(std::round(per_day)));
}

TimeSeries TimeSeries::rolling_mean(std::size_t window) const {
  GREENHPC_REQUIRE(window >= 1, "rolling window must be >= 1");
  TimeSeries out(start_, step_);
  const auto n = static_cast<std::ptrdiff_t>(values_.size());
  const auto half = static_cast<std::ptrdiff_t>(window / 2);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi = std::min(n - 1, i + half);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) sum += values_[static_cast<std::size_t>(j)];
    out.push_back(sum / static_cast<double>(hi - lo + 1));
  }
  return out;
}

TimeSeries TimeSeries::map(const std::function<double(double)>& f) const {
  TimeSeries out(start_, step_);
  for (double v : values_) out.push_back(f(v));
  return out;
}

double TimeSeries::autocorrelation(std::size_t lag) const {
  if (lag == 0) return 1.0;
  if (values_.size() <= lag + 1) return 0.0;
  RunningStats s;
  for (double v : values_) s.add(v);
  const double var = s.variance();
  if (var <= 0.0) return 0.0;
  double cov = 0.0;
  const std::size_t n = values_.size() - lag;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (values_[i] - s.mean()) * (values_[i + lag] - s.mean());
  }
  return cov / (static_cast<double>(n) * var);
}

TimeSeries TimeSeries::slice(std::size_t first, std::size_t count) const {
  GREENHPC_REQUIRE(first + count <= values_.size(), "slice out of range");
  std::vector<double> vals(values_.begin() + static_cast<std::ptrdiff_t>(first),
                           values_.begin() + static_cast<std::ptrdiff_t>(first + count));
  return TimeSeries(start_ + step_ * static_cast<double>(first), step_, std::move(vals));
}

}  // namespace greenhpc::util

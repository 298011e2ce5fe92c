#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace greenhpc::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }
double RunningStats::sample_stddev() const { return std::sqrt(sample_variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  mean_ = (na * mean_ + nb * other.mean_) / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::span<const double> xs, double q) {
  GREENHPC_REQUIRE(!xs.empty(), "percentile of empty sample");
  GREENHPC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  if (xs.size() == 1) return xs.front();
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return *std::max_element(xs.begin(), xs.end());
  // Selection instead of a sort: nth_element puts the rank-lo order
  // statistic at lo and only larger-or-equal values after it, so the
  // rank-(lo+1) one is the minimum of that upper partition. Both are the
  // values a full sort would leave at lo and lo+1, so the result is the
  // same bits, in O(n).
  std::vector<double> part(xs.begin(), xs.end());
  const auto nth = part.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(part.begin(), nth, part.end());
  const double next = *std::min_element(nth + 1, part.end());
  return *nth * (1.0 - frac) + next * frac;
}

SlidingPercentile::SlidingPercentile(std::size_t capacity) : capacity_(capacity) {
  GREENHPC_REQUIRE(capacity_ >= 1, "sliding percentile window must hold >= 1 value");
  order_.reserve(capacity_);
  sorted_.reserve(capacity_);
}

void SlidingPercentile::push(double x, std::size_t count) {
  // While filling: all copies of x go in at one slot.
  const std::size_t fill = std::min(count, capacity_ - order_.size());
  if (fill > 0) {
    order_.insert(order_.end(), fill, x);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), x), fill, x);
    count -= fill;
  }
  // Full: each copy replaces the oldest value. Victims are taken in runs
  // of equal values; a run of k equal values is contiguous in the sorted
  // sequence (equal elements are interchangeable, so the block starting
  // at the first match is exact), and replacing it by k copies of x gives
  // the same sequence k erase-then-insert steps would, with only the
  // elements between the victim block and x's slot moving, in one shift.
  while (count > 0) {
    const double victim = order_[oldest_];
    std::size_t k = 0;
    do {
      order_[oldest_] = x;
      oldest_ = (oldest_ + 1) % capacity_;
      ++k;
    } while (k < count && k < capacity_ && order_[oldest_] == victim);
    count -= k;
    const auto p = std::lower_bound(sorted_.begin(), sorted_.end(), victim);
    const auto q = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    const auto kd = static_cast<std::ptrdiff_t>(k);
    if (p < q) {  // x lands left of q once the victims are gone
      std::copy(p + kd, q, p);
      std::fill(q - kd, q, x);
    } else {
      std::copy_backward(q, p, p + kd);
      std::fill(q, q + kd, x);
    }
  }
}

double SlidingPercentile::percentile(double q) const {
  // Mirrors util::percentile on the already-sorted window so results are
  // bit-identical to recomputing from scratch each query.
  GREENHPC_REQUIRE(!sorted_.empty(), "percentile of empty sample");
  GREENHPC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

std::size_t SlidingPercentile::percentile_rank(double q) const {
  GREENHPC_REQUIRE(!sorted_.empty(), "percentile of empty sample");
  GREENHPC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  // The same position arithmetic percentile() uses.
  return static_cast<std::size_t>(q * static_cast<double>(sorted_.size() - 1));
}

std::size_t SlidingPercentile::count_below(double x) const {
  return static_cast<std::size_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), x) - sorted_.begin());
}

std::size_t SlidingPercentile::count_at_most(double x) const {
  return static_cast<std::size_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), x) - sorted_.begin());
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  RunningStats rs;
  for (double x : xs) rs.add(x);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.sample_stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.p25 = percentile(xs, 0.25);
  s.median = percentile(xs, 0.50);
  s.p75 = percentile(xs, 0.75);
  s.p95 = percentile(xs, 0.95);
  return s;
}

double mape(std::span<const double> actual, std::span<const double> forecast) {
  GREENHPC_REQUIRE(actual.size() == forecast.size(), "mape length mismatch");
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == 0.0) continue;
    total += std::fabs((forecast[i] - actual[i]) / actual[i]);
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

double rmse(std::span<const double> actual, std::span<const double> forecast) {
  GREENHPC_REQUIRE(actual.size() == forecast.size() && !actual.empty(),
                   "rmse requires matching non-empty samples");
  double total = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = forecast[i] - actual[i];
    total += d * d;
  }
  return std::sqrt(total / static_cast<double>(actual.size()));
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  GREENHPC_REQUIRE(xs.size() == ys.size() && !xs.empty(),
                   "pearson requires matching non-empty samples");
  RunningStats sx, sy;
  for (double x : xs) sx.add(x);
  for (double y : ys) sy.add(y);
  if (sx.stddev() == 0.0 || sy.stddev() == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - sx.mean()) * (ys[i] - sy.mean());
  }
  cov /= static_cast<double>(xs.size());
  return cov / (sx.stddev() * sy.stddev());
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo, double hi,
                                   std::size_t bins) {
  GREENHPC_REQUIRE(bins > 0, "histogram needs at least one bin");
  GREENHPC_REQUIRE(hi > lo, "histogram range must be non-degenerate");
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto idx = static_cast<std::ptrdiff_t>((x - lo) / width);
    idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(idx)];
  }
  return counts;
}

}  // namespace greenhpc::util

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
}

std::size_t SlidingPercentile::lower_index(double x) const {
  return static_cast<std::size_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), x,
                       [](const Entry& e, double v) { return e.value < v; }) -
      sorted_.begin());
}

void SlidingPercentile::add_copies(double x, std::size_t k) {
  const std::size_t t = lower_index(x);
  for (std::size_t i = t; i < sorted_.size(); ++i) sorted_[i].at_most += k;
  if (t == sorted_.size() || sorted_[t].value != x) {
    sorted_.insert(sorted_.begin() + static_cast<std::ptrdiff_t>(t),
                   Entry{x, (t > 0 ? sorted_[t - 1].at_most : 0) + k});
  }
}

void SlidingPercentile::replace_copies(double from, double to, std::size_t k) {
  if (from == to) return;
  const std::size_t f = lower_index(from);
  const std::size_t t = lower_index(to);
  const bool emptied =
      sorted_[f].at_most - (f > 0 ? sorted_[f - 1].at_most : 0) == k;
  // Removing k copies of `from` lowers every count from f on; adding k
  // copies of `to` raises every one from t on. Only the range between
  // the two moves.
  if (f < t) {
    for (std::size_t i = f; i < t; ++i) sorted_[i].at_most -= k;
  } else {
    for (std::size_t i = t; i < f; ++i) sorted_[i].at_most += k;
  }
  const auto at = [this](std::size_t i) {
    return sorted_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  if (t < sorted_.size() && sorted_[t].value == to) {
    if (emptied) sorted_.erase(at(f));
    return;
  }
  // Every window value below `to` is counted by the entry just below t.
  const Entry fresh{to, (t > 0 ? sorted_[t - 1].at_most : 0) + k};
  if (!emptied) {
    sorted_.insert(at(t), fresh);
  } else if (f < t) {  // `from`'s slot moves up to `to`'s place
    std::copy(at(f + 1), at(t), at(f));
    sorted_[t - 1] = fresh;
  } else {  // ... or down
    std::copy_backward(at(t), at(f), at(f + 1));
    sorted_[t] = fresh;
  }
}

void SlidingPercentile::push(double x, std::size_t count) {
  if (count == 0) return;
  if (count >= capacity_) {  // the last `capacity` values are all x
    runs_.assign(1, Run{x, capacity_});
    sorted_.assign(1, Entry{x, capacity_});
    size_ = capacity_;
    return;
  }
  // While filling: copies of x join without evicting.
  const std::size_t fill = std::min(count, capacity_ - size_);
  if (fill > 0) {
    add_copies(x, fill);
    size_ += fill;
  }
  // Full: each further copy replaces the oldest value. count < capacity,
  // so the victims all come from runs already in the ring, oldest first.
  for (std::size_t rest = count - fill; rest > 0;) {
    Run& oldest = runs_.front();
    const std::size_t k = std::min(oldest.count, rest);
    replace_copies(oldest.value, x, k);
    oldest.count -= k;
    rest -= k;
    if (oldest.count == 0) runs_.pop_front();
  }
  if (!runs_.empty() && runs_.back().value == x) {
    runs_.back().count += count;
  } else {
    runs_.push_back(Run{x, count});
  }
}

double SlidingPercentile::value_at(std::size_t r) const {
  return std::upper_bound(sorted_.begin(), sorted_.end(), r,
                          [](std::size_t v, const Entry& e) { return v < e.at_most; })
      ->value;
}

double SlidingPercentile::percentile(double q) const {
  // Mirrors util::percentile on the sorted window so results are
  // bit-identical to recomputing from scratch each query.
  GREENHPC_REQUIRE(size_ > 0, "percentile of empty sample");
  GREENHPC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  if (size_ == 1) return sorted_.front().value;
  const double pos = q * static_cast<double>(size_ - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= size_) return sorted_.back().value;
  return value_at(lo) * (1.0 - frac) + value_at(lo + 1) * frac;
}

std::size_t SlidingPercentile::percentile_rank(double q) const {
  GREENHPC_REQUIRE(size_ > 0, "percentile of empty sample");
  GREENHPC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  // The same position arithmetic percentile() uses.
  return static_cast<std::size_t>(q * static_cast<double>(size_ - 1));
}

std::size_t SlidingPercentile::count_below(double x) const {
  const std::size_t i = lower_index(x);
  return i > 0 ? sorted_[i - 1].at_most : 0;
}

std::size_t SlidingPercentile::count_at_most(double x) const {
  const auto i = std::upper_bound(sorted_.begin(), sorted_.end(), x,
                                  [](double v, const Entry& e) { return v < e.value; }) -
                 sorted_.begin();
  return i > 0 ? sorted_[static_cast<std::size_t>(i) - 1].at_most : 0;
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

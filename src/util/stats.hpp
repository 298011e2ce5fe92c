#pragma once
// Descriptive statistics used by calibration, experiments and tests.

#include <cstddef>
#include <deque>
#include <limits>
#include <span>
#include <vector>

namespace greenhpc::util {

/// Numerically stable streaming mean/variance/extrema (Welford's algorithm).
class RunningStats {
 public:
  /// Fold one observation into the accumulator.
  void add(double x);
  /// Number of observations folded so far.
  [[nodiscard]] std::size_t count() const { return n_; }
  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 with fewer than two observations.
  [[nodiscard]] double variance() const;
  /// Sample variance (n-1 denominator); 0 with fewer than two observations.
  [[nodiscard]] double sample_variance() const;
  /// Population standard deviation.
  [[nodiscard]] double stddev() const;
  /// Sample standard deviation.
  [[nodiscard]] double sample_stddev() const;
  /// Smallest observation; +inf when empty.
  [[nodiscard]] double min() const { return min_; }
  /// Largest observation; -inf when empty.
  [[nodiscard]] double max() const { return max_; }
  /// Sum of all observations.
  [[nodiscard]] double sum() const { return sum_; }
  /// Merge another accumulator (parallel reduction support).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Five-number-plus summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Compute a Summary of `xs`. Empty input yields a zeroed Summary.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 1]. Requires non-empty input.
/// O(n): selects the two order statistics it interpolates between (on a
/// copy) instead of sorting, with the same result bits as a sort.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

/// Percentiles over a sliding window of the last `capacity` appended
/// values, bit-identical to calling percentile() on that window but
/// without the per-query copy-and-select. The window is kept in run form:
/// a queue of (value, count) runs in insertion order, and the distinct
/// values in ascending order, each with the number of window values at
/// or below it. A push of a run of equal values costs one update per run
/// it evicts, and an update shifts and recounts only the distinct values
/// between the evicted value and the appended one; queries are binary
/// searches. Built for per-tick quantile gates over a trailing history
/// window whose values arrive in runs (e.g. the carbon-aware green
/// threshold over a piecewise-constant intensity trace). Values that
/// compare equal (0.0 and -0.0) share one entry.
class SlidingPercentile {
 public:
  /// Window capacity in samples (>= 1).
  explicit SlidingPercentile(std::size_t capacity);

  /// Append `count` copies of x, evicting the oldest value per copy once
  /// the window is full. A count of 0 changes nothing; a count of at
  /// least the capacity leaves the window holding only x.
  void push(double x, std::size_t count = 1);
  /// Number of values currently in the window (<= capacity).
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Same contract and arithmetic as percentile(window, q); requires a
  /// non-empty window.
  [[nodiscard]] double percentile(double q) const;
  /// Index (into the sorted window) of the lower order statistic that
  /// percentile(q) interpolates from; the upper one is the next index
  /// (or the same one for a single-value window). Requires a non-empty
  /// window.
  [[nodiscard]] std::size_t percentile_rank(double q) const;
  /// Rank queries, O(log n): the number of window values strictly below
  /// `x`, and at or below `x`.
  [[nodiscard]] std::size_t count_below(double x) const;
  [[nodiscard]] std::size_t count_at_most(double x) const;
  /// The value at 0-based rank r of the sorted window (r < size()): the
  /// values percentile() interpolates between are value_at(lo) and
  /// value_at(lo + 1), lo = percentile_rank(q).
  [[nodiscard]] double value_at(std::size_t r) const;

 private:
  struct Run {
    double value;
    std::size_t count;
  };
  struct Entry {
    double value;
    std::size_t at_most;  ///< window values <= value
  };
  /// Index of the first distinct value not below x.
  [[nodiscard]] std::size_t lower_index(double x) const;
  /// Add k copies of x (the window is filling).
  void add_copies(double x, std::size_t k);
  /// Replace k copies of the window value `from` by k copies of `to`.
  void replace_copies(double from, double to, std::size_t k);

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::deque<Run> runs_;       ///< the window in insertion order
  std::vector<Entry> sorted_;  ///< distinct window values, ascending
};

/// Mean absolute percentage error of `forecast` against `actual`
/// (matching lengths; entries where actual == 0 are skipped).
[[nodiscard]] double mape(std::span<const double> actual, std::span<const double> forecast);

/// Root mean squared error (matching, non-empty lengths).
[[nodiscard]] double rmse(std::span<const double> actual, std::span<const double> forecast);

/// Pearson correlation of two equal-length samples; 0 if either is constant.
[[nodiscard]] double pearson(std::span<const double> xs, std::span<const double> ys);

/// Fixed-width histogram over [lo, hi] with `bins` buckets; values outside
/// the range are clamped into the edge buckets.
[[nodiscard]] std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                                 double hi, std::size_t bins);

}  // namespace greenhpc::util

#pragma once
// Regularly sampled time series.
//
// Carbon-intensity traces, power telemetry and simulator outputs are all
// fixed-step series; TimeSeries provides the shared representation plus the
// resampling/integration/window operations the carbon and accounting modules
// need. Sample i covers the half-open interval
// [start + i*step, start + (i+1)*step) — i.e. samples are zero-order-hold
// values, which makes integrals exact sums.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace greenhpc::util {

class TimeSeries {
 public:
  /// Empty series at time 0 with a 1-second step (useful as a
  /// to-be-assigned placeholder in aggregates).
  TimeSeries() : TimeSeries(seconds(0.0), seconds(1.0)) {}
  /// Empty series with the given start time and sampling step (step > 0).
  TimeSeries(Duration start, Duration step);
  /// Series with pre-populated values.
  TimeSeries(Duration start, Duration step, std::vector<double> values);

  /// Absolute time of the first sample.
  [[nodiscard]] Duration start() const { return start_; }
  /// Sampling period.
  [[nodiscard]] Duration step() const { return step_; }
  /// Time one past the last sample's interval (start + size*step).
  [[nodiscard]] Duration end() const;
  /// Number of samples.
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// Raw sample storage.
  [[nodiscard]] std::span<const double> values() const { return values_; }
  /// Sample by index (bounds-checked).
  [[nodiscard]] double at(std::size_t i) const;
  /// Room for `n` samples without reallocation.
  void reserve(std::size_t n) { values_.reserve(n); }
  /// Append one sample at the end of the series.
  void push_back(double v) { values_.push_back(v); }
  /// Append `n` copies of the same sample (bulk twin of push_back).
  void append_fill(std::size_t n, double v) {
    values_.insert(values_.end(), n, v);
  }

  /// Zero-order-hold lookup of the sample covering absolute time t.
  /// Requires t within [start, end).
  [[nodiscard]] double sample_at(Duration t) const;
  /// Like sample_at but clamps t into the series' valid range, so callers
  /// probing slightly past the end (e.g. a forecaster's horizon) get the
  /// boundary value instead of an exception. Requires a non-empty series.
  [[nodiscard]] double sample_at_clamped(Duration t) const;

  /// Monotonic sampling cursor for tick loops: remembers the interval of
  /// the previous lookup so a caller advancing in (mostly) non-decreasing
  /// time pays an interval test instead of a division per sample. A
  /// cursor belongs to one series; reuse across series is undefined.
  class Cursor {
   public:
    Cursor() = default;

   private:
    friend class TimeSeries;
    std::size_t idx_ = 0;
  };
  /// Cursor-accelerated sample_at_clamped: same result for any t (the
  /// cursor falls back to the direct index computation on backward or
  /// long forward jumps), O(1) with no division for tick-step callers.
  [[nodiscard]] double sample_at_clamped(Duration t, Cursor& cursor) const;
  /// Index of the sample covering absolute time t (requires t in range).
  [[nodiscard]] std::size_t index_at(Duration t) const;
  /// End of the segment covering t under clamped lookup:
  /// sample_at_clamped returns one value at every time in [t, end).
  /// Before the series the clamped first sample runs to the end of
  /// sample 0; past the series the clamped last sample never changes
  /// (+inf). Requires a non-empty series.
  [[nodiscard]] Duration segment_end(Duration t) const;

  /// Integral of the series over [t0, t1] treating samples as piecewise-
  /// constant. Result is in value-units * seconds (so a Power series
  /// integrates to joules). Requires start <= t0 <= t1 <= end.
  [[nodiscard]] double integrate(Duration t0, Duration t1) const;
  /// Mean value over [t0, t1] (integral / span). Requires t0 < t1 in range.
  [[nodiscard]] double mean_over(Duration t0, Duration t1) const;

  /// New series averaging every `factor` consecutive samples (trailing
  /// partial window averaged over its actual length). factor >= 1.
  [[nodiscard]] TimeSeries downsample_mean(std::size_t factor) const;
  /// Per-day mean values: one output sample per 86400 s window.
  [[nodiscard]] TimeSeries daily_mean() const;
  /// Centered rolling mean with the given window length (odd preferred);
  /// windows are truncated at the edges.
  [[nodiscard]] TimeSeries rolling_mean(std::size_t window) const;
  /// Elementwise transform into a new series.
  [[nodiscard]] TimeSeries map(const std::function<double(double)>& f) const;
  /// Contiguous sub-series of samples [first, first + count).
  [[nodiscard]] TimeSeries slice(std::size_t first, std::size_t count) const;

  /// Summary statistics over all samples.
  [[nodiscard]] Summary summary() const { return summarize(values_); }

  /// Sample autocorrelation at the given lag (in samples); 0 when the
  /// series is too short or constant. Used to validate that generated
  /// traces carry the intended temporal structure (diurnal cycles,
  /// multi-day weather regimes).
  [[nodiscard]] double autocorrelation(std::size_t lag) const;

 private:
  Duration start_;
  Duration step_;
  std::vector<double> values_;
};

}  // namespace greenhpc::util

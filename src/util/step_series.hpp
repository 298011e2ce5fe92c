#pragma once
// Run-length series on a fixed tick grid.
//
// The simulator's per-tick outputs (system draw, power budget, intensity,
// busy nodes) hold long stretches of one value: a span integrates
// thousands of ticks at constant draw, and the budget rarely moves at
// all. StepSeries stores such a series as (value, count) runs on the same
// grid TimeSeries uses — tick i covers [start + i*step, start + (i+1)*step)
// — so appending a span is O(1), and a simulated week holds about a
// thousand runs where a flat series holds one double per tick.
//
// Runs merge only on bit equality: +0.0 and -0.0, or two NaNs with
// different payloads, stay separate runs. expand() therefore reproduces
// every appended sample bit for bit; it is the only way to get flat
// samples. The whole-series integral walks the runs but performs the same
// per-tick additions, in tick order, as TimeSeries::integrate over the
// expanded series, so it returns the same bits.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::util {

class StepSeries {
 public:
  /// `count` consecutive ticks holding `value` (count >= 1).
  struct Run {
    double value = 0.0;
    std::size_t count = 0;
  };

  /// Empty series at time 0 with a 1-second step.
  StepSeries() : StepSeries(seconds(0.0), seconds(1.0)) {}
  /// Empty series with the given start time and tick (step > 0).
  StepSeries(Duration start, Duration step);

  /// Absolute time of the first tick.
  [[nodiscard]] Duration start() const { return start_; }
  /// Tick length.
  [[nodiscard]] Duration step() const { return step_; }
  /// Time one past the last tick (start + size*step, as TimeSeries::end).
  [[nodiscard]] Duration end() const {
    return start_ + step_ * static_cast<double>(size_);
  }
  /// Number of ticks (not runs).
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// The runs in tick order; adjacent runs never hold bit-equal values.
  [[nodiscard]] std::span<const Run> runs() const { return runs_; }

  /// Append one tick.
  void push_back(double v) { append_fill(1, v); }
  /// Append `n` ticks of the same value; extends the last run when `v`
  /// is bit-equal to it. n == 0 appends nothing.
  void append_fill(std::size_t n, double v) {
    if (n == 0) return;
    size_ += n;
    if (!runs_.empty() && std::bit_cast<std::uint64_t>(runs_.back().value) ==
                              std::bit_cast<std::uint64_t>(v)) {
      runs_.back().count += n;
      return;
    }
    runs_.push_back(Run{v, n});
  }

  /// The flat series: one sample per tick, same start and step.
  [[nodiscard]] TimeSeries expand() const;
  /// Integral over [start, end] (value-units * seconds); bit-identical to
  /// expand().integrate(start(), end()).
  [[nodiscard]] double integrate() const;

 private:
  Duration start_;
  Duration step_;
  std::vector<Run> runs_;
  std::size_t size_ = 0;
};

}  // namespace greenhpc::util

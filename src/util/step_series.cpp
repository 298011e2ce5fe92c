#include "util/step_series.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace greenhpc::util {

StepSeries::StepSeries(Duration start, Duration step) : start_(start), step_(step) {
  GREENHPC_REQUIRE(step.seconds() > 0.0, "step series step must be positive");
}

TimeSeries StepSeries::expand() const {
  std::vector<double> values;
  values.reserve(size_);
  for (const Run& r : runs_) values.insert(values.end(), r.count, r.value);
  return TimeSeries(start_, step_, std::move(values));
}

double StepSeries::integrate() const {
  // TimeSeries::integrate(start, end) with the tick index bounds
  // evaluated the same way: tick 0 weighs step (rel1 if it is the only
  // tick), ticks (0, last) weigh step each, tick `last` weighs
  // rel1 - last * step, and ticks past `last` (only if rounding put it
  // before size - 1) weigh nothing.
  const Duration t1 = end();
  if (start_ == t1) return 0.0;
  const double step = step_.seconds();
  const double rel1 = t1.seconds() - start_.seconds();
  const std::size_t last =
      std::min(static_cast<std::size_t>((rel1 - 1e-12) / step), size_ - 1);
  if (last == 0) return runs_.front().value * rel1;
  double total = runs_.front().value * step;
  std::size_t first_tick = 0;
  for (const Run& r : runs_) {
    const std::size_t end_tick = first_tick + r.count;
    const double per_tick = r.value * step;
    for (std::size_t i = std::max<std::size_t>(first_tick, 1);
         i < std::min(end_tick, last); ++i) {
      total += per_tick;
    }
    if (last < end_tick) {
      total += r.value * (rel1 - static_cast<double>(last) * step);
      break;
    }
    first_tick = end_tick;
  }
  return total;
}

}  // namespace greenhpc::util

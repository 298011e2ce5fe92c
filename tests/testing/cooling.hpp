#pragma once
// Cooling-model helpers shared by the facility tests.

#include "facility/cooling.hpp"
#include "util/time_series.hpp"

namespace greenhpc::testing {

/// Mean of the model's PUE over the samples of a temperature trace.
inline double mean_pue(const facility::CoolingModel& model,
                       const util::TimeSeries& temperature) {
  double sum = 0.0;
  for (double t : temperature.values()) sum += model.pue_at(t);
  return sum / static_cast<double>(temperature.size());
}

}  // namespace greenhpc::testing

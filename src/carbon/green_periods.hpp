#pragma once
// Green-period detection (paper section 3.3): contiguous windows where the
// grid carbon intensity is significantly below the local average, which
// carbon-aware backfill and checkpoint policies target.

#include <vector>

#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::carbon {

/// A contiguous low-carbon window [start, end).
struct GreenWindow {
  Duration start;
  Duration end;
  double mean_intensity = 0.0;  ///< mean gCO2/kWh inside the window

  [[nodiscard]] Duration length() const { return end - start; }
};

/// The intensity value below which a sample counts as "green": the given
/// quantile (in [0,1]) of the series' samples.
[[nodiscard]] double green_threshold(const util::TimeSeries& intensity, double quantile);

/// All maximal green windows of the series under `threshold`, ignoring
/// windows shorter than `min_length`.
[[nodiscard]] std::vector<GreenWindow> find_green_windows(const util::TimeSeries& intensity,
                                                          double threshold,
                                                          Duration min_length = minutes(0));

/// Fraction of total series time that is green under `threshold`.
/// Kept as the oracle of `GridProperties.GreenThresholdSplitsTraceConsistently`.
[[nodiscard]] double green_fraction(const util::TimeSeries& intensity, double threshold);

}  // namespace greenhpc::carbon

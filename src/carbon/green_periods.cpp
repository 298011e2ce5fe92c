#include "carbon/green_periods.hpp"

#include "util/error.hpp"
#include "util/stats.hpp"

namespace greenhpc::carbon {

double green_threshold(const util::TimeSeries& intensity, double quantile) {
  GREENHPC_REQUIRE(!intensity.empty(), "green_threshold on empty series");
  return util::percentile(intensity.values(), quantile);
}

std::vector<GreenWindow> find_green_windows(const util::TimeSeries& intensity,
                                            double threshold, Duration min_length) {
  std::vector<GreenWindow> windows;
  const Duration step = intensity.step();
  bool open = false;
  GreenWindow current{};
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    const Duration t = intensity.start() + step * static_cast<double>(i);
    const bool green = intensity.at(i) <= threshold;
    if (green && !open) {
      open = true;
      current.start = t;
      sum = 0.0;
      count = 0;
    }
    if (green) {
      sum += intensity.at(i);
      ++count;
    }
    if (!green && open) {
      open = false;
      current.end = t;
      current.mean_intensity = sum / static_cast<double>(count);
      if (current.length() >= min_length) windows.push_back(current);
    }
  }
  if (open) {
    current.end = intensity.end();
    current.mean_intensity = sum / static_cast<double>(count);
    if (current.length() >= min_length) windows.push_back(current);
  }
  return windows;
}

double green_fraction(const util::TimeSeries& intensity, double threshold) {
  GREENHPC_REQUIRE(!intensity.empty(), "green_fraction on empty series");
  std::size_t green = 0;
  for (double v : intensity.values()) {
    if (v <= threshold) ++green;
  }
  return static_cast<double>(green) / static_cast<double>(intensity.size());
}

}  // namespace greenhpc::carbon

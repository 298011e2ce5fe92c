#include "resilience/degraded_feed.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace greenhpc::resilience {

void DegradedFeedConfig::validate() const {
  GREENHPC_REQUIRE(outage_fraction >= 0.0 && outage_fraction <= 1.0,
                   "degraded feed: outage fraction must be in [0, 1]");
  GREENHPC_REQUIRE(mean_outage.seconds() > 0.0,
                   "degraded feed: mean outage must be > 0");
}

DegradedFeed::DegradedFeed(DegradedFeedConfig config, Duration horizon)
    : cfg_(config) {
  cfg_.validate();
  GREENHPC_REQUIRE(horizon.seconds() > 0.0, "degraded feed: horizon must be > 0");
  const double f = cfg_.outage_fraction;
  if (f <= 0.0) return;
  if (f >= 1.0) {
    outages_.emplace_back(seconds(0.0), horizon);
    return;
  }
  // Alternating renewal process: exponential up-times with mean chosen so
  // the long-run down fraction is f, exponential down-times with mean
  // mean_outage. The realization is a pure function of (config, horizon).
  const double mean_down = cfg_.mean_outage.seconds();
  const double mean_up = mean_down * (1.0 - f) / f;
  util::Rng rng(cfg_.seed);
  double t = rng.exponential(1.0 / mean_up);  // start in an up-window
  while (t < horizon.seconds()) {
    const double down = rng.exponential(1.0 / mean_down);
    const double end = std::min(t + down, horizon.seconds());
    outages_.emplace_back(seconds(t), seconds(end));
    t = end + rng.exponential(1.0 / mean_up);
  }
}

bool DegradedFeed::down_at(Duration t) const {
  // First window starting after t; its predecessor is the only candidate.
  auto it = std::upper_bound(
      outages_.begin(), outages_.end(), t,
      [](Duration v, const std::pair<Duration, Duration>& w) { return v < w.first; });
  if (it == outages_.begin()) return false;
  --it;
  return t < it->second;
}

std::optional<double> DegradedFeed::observe(Duration now, double true_value) {
  if (down_at(now)) return std::nullopt;
  return true_value;
}

}  // namespace greenhpc::resilience

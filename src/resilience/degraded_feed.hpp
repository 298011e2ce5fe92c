#pragma once
// Degraded carbon-intensity feed (robustness layer).
//
// Real carbon-intensity APIs go down: network partitions, provider
// outages, rate limits. DegradedFeed models the feed as an alternating
// renewal process of up/down windows (both exponentially distributed,
// tuned to a long-run outage fraction) and implements
// hpcsim::IntensityFeed: during an outage observe() returns nullopt and
// the simulator holds the last known value while its staleness clock
// grows. Carbon-aware policies then degrade along the ladder
//   fresh signal -> last-known-value hold -> carbon-blind
// instead of acting on garbage (ISSUE acceptance: no policy ever reads a
// stale value past its staleness horizon without knowing it is stale).

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hpcsim/faults.hpp"
#include "util/units.hpp"

namespace greenhpc::resilience {

struct DegradedFeedConfig {
  /// Long-run fraction of time the feed is unavailable, in [0, 1].
  /// 0 = perfect feed (no outages generated), 1 = permanently dark.
  double outage_fraction = 0.0;
  /// Mean length of a single outage window.
  Duration mean_outage = hours(2.0);
  std::uint64_t seed = 0xfeedbeefull;

  void validate() const;
};

class DegradedFeed final : public hpcsim::IntensityFeed {
 public:
  /// Pre-generates the outage windows over [0, horizon]; observations
  /// past the horizon are treated as fresh.
  DegradedFeed(DegradedFeedConfig config, Duration horizon);

  /// Fresh sample of the true value, or nullopt while the feed is down.
  [[nodiscard]] std::optional<double> observe(Duration now,
                                              double true_value) override;

  [[nodiscard]] bool down_at(Duration t) const;
  /// Generated outage windows as [start, end) pairs, ascending.
  [[nodiscard]] const std::vector<std::pair<Duration, Duration>>& outages() const {
    return outages_;
  }

 private:
  DegradedFeedConfig cfg_;
  std::vector<std::pair<Duration, Duration>> outages_;
};

}  // namespace greenhpc::resilience

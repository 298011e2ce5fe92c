#pragma once
// Seeded random run-length series for the StepSeries property tests.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/step_series.hpp"

namespace greenhpc::testing {

/// A random run list on a random grid. Values come from a small pool
/// (both zeros, a subnormal, repeats) so adjacent runs often merge;
/// counts are mostly short with occasional long spans; every 16th
/// series is a single sample and every 16th (offset 8) a single run.
/// Appends mix push_back and append_fill. `index` picks the shape.
inline util::StepSeries random_step_series(util::Rng& rng, std::size_t index) {
  static constexpr double kStarts[] = {0.0, 3600.0, 12.345};
  static constexpr double kSteps[] = {60.0, 120.0, 0.1, 7.3, 1.0 / 3.0};
  const double pool[] = {0.0, -0.0, 4.9e-324, 1.5, 42.0, 3.7e5, 250.0};
  util::StepSeries s(
      seconds(kStarts[rng.uniform_int(0, 2)]), seconds(kSteps[rng.uniform_int(0, 4)]));
  auto value = [&] {
    return rng.bernoulli(0.7) ? pool[rng.uniform_int(0, 6)] : rng.uniform(0.0, 600.0);
  };
  if (index % 16 == 0) {
    s.push_back(value());
    return s;
  }
  const auto runs = index % 16 == 8 ? 1 : rng.uniform_int(1, 40);
  for (std::int64_t r = 0; r < runs; ++r) {
    const double v = value();
    const auto n = rng.bernoulli(0.1) ? rng.uniform_int(100, 3000) : rng.uniform_int(1, 12);
    if (rng.bernoulli(0.3)) {
      for (std::int64_t i = 0; i < n; ++i) s.push_back(v);
    } else {
      s.append_fill(static_cast<std::size_t>(n), v);
    }
  }
  return s;
}

}  // namespace greenhpc::testing

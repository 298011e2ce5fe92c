#pragma once
// Stochastic grid carbon-intensity generator.
//
// Produces the per-region carbon-intensity traces that every operational
// experiment (Fig. 2, sections 3.1-3.4) consumes. Generation is fully
// deterministic for a given (region, seed) pair.

#include <cstdint>
#include <span>
#include <vector>

#include "carbon/region.hpp"
#include "util/rng.hpp"
#include "util/time_series.hpp"
#include "util/units.hpp"

namespace greenhpc::carbon {

/// Kinds of intensity signal (see the "average vs marginal" distinction the
/// paper cites; marginal generation is usually fossil and hence dirtier).
enum class IntensityKind {
  Average,   ///< consumption-weighted average of the generation mix
  Marginal,  ///< intensity of the marginal (next-kW) generator
};

/// Generator of carbon-intensity time series for one region.
///
/// The process is the sum of a deterministic demand shape (diurnal cosine,
/// solar midday dip, weekend scaling) and an Ornstein-Uhlenbeck weather
/// term whose multi-day correlation produces realistic day-to-day regimes
/// (e.g. a windless cold week in Finland). See RegionTraits for the exact
/// formula. Marginal traces apply the region's marginal uplift to the
/// above-floor part of the signal.
class GridModel {
 public:
  /// Model for `region`, seeded deterministically; the same (region, seed)
  /// always generates the same trace.
  GridModel(Region region, std::uint64_t seed);
  /// Model with explicit traits (for tests and what-if grids).
  GridModel(RegionTraits custom_traits, std::uint64_t seed);

  /// Region parameters in use.
  [[nodiscard]] const RegionTraits& region_traits() const { return traits_; }

  /// Generate a trace starting at absolute time `start` (seconds since the
  /// simulation epoch; hour-of-day = (start/3600) mod 24, day 0 is a
  /// Sunday), covering `duration` at `step` resolution.
  [[nodiscard]] util::TimeSeries generate(Duration start, Duration duration, Duration step,
                                          IntensityKind kind = IntensityKind::Average);

  /// The trace's shape: deterministic_component at each sample of a
  /// trace over `duration` from `start` at `step`. It depends on the
  /// region traits alone, so every seed and kind of a region shares it
  /// (carbon::TraceCache keeps one per region and window).
  [[nodiscard]] std::vector<double> shape(Duration start, Duration duration,
                                          Duration step) const;

  /// generate() over a precomputed shape(start, duration, step): adds the
  /// Ornstein-Uhlenbeck weather draw, the clamp and, for a marginal
  /// trace, the uplift. Bit-identical to generate(start, duration, step,
  /// kind) on a model of the same traits and seed.
  [[nodiscard]] util::TimeSeries generate(std::span<const double> shape, Duration start,
                                          Duration step,
                                          IntensityKind kind = IntensityKind::Average);

  /// Instantaneous intensity value of the deterministic component only
  /// (no weather noise) — used by forecasters' oracle baselines and tests.
  [[nodiscard]] double deterministic_component(Duration t) const;

 private:
  RegionTraits traits_;
  util::Rng rng_;
};

/// A trace bundle: one series per region over a common window (the Fig. 2
/// setting). Regions appear in all_regions() order.
struct RegionalTraces {
  std::vector<Region> regions;
  std::vector<util::TimeSeries> series;
};

/// Generate hour-resolution traces for all regions over `duration`,
/// seeding each region's model from `seed` so the bundle is reproducible.
[[nodiscard]] RegionalTraces generate_european_traces(Duration start, Duration duration,
                                                      Duration step, std::uint64_t seed,
                                                      IntensityKind kind = IntensityKind::Marginal);

}  // namespace greenhpc::carbon

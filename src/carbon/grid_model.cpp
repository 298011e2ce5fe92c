#include "carbon/grid_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace greenhpc::carbon {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

[[nodiscard]] double hour_of_day(Duration t) {
  return std::fmod(t.seconds() / 3600.0, 24.0);
}

[[nodiscard]] bool is_weekend(Duration t) {
  // Day 0 of the simulation epoch is a Sunday.
  const auto day = static_cast<long long>(t.seconds() / 86400.0);
  const long long dow = ((day % 7) + 7) % 7;
  return dow == 0 || dow == 6;
}

/// Smooth midday bump in [0,1] peaking at 13:00, ~6 h wide — the window in
/// which solar output displaces fossil generation.
[[nodiscard]] double solar_bump(double hour) {
  const double x = (hour - 13.0) / 3.5;
  return std::exp(-x * x);
}
}  // namespace

GridModel::GridModel(Region region, std::uint64_t seed)
    : GridModel(traits(region), seed) {}

GridModel::GridModel(RegionTraits custom_traits, std::uint64_t seed)
    : traits_(custom_traits), rng_(seed ^ 0x67726964u /* "grid" */) {
  GREENHPC_REQUIRE(traits_.mean_gkwh > 0.0, "region mean intensity must be > 0");
  GREENHPC_REQUIRE(traits_.cap_gkwh > traits_.floor_gkwh, "region cap must exceed floor");
  GREENHPC_REQUIRE(traits_.ou_tau_hours > 0.0, "OU correlation time must be > 0");
}

double GridModel::deterministic_component(Duration t) const {
  const double h = hour_of_day(t);
  const double weekend = is_weekend(t) ? traits_.weekend_factor : 1.0;
  double v = traits_.mean_gkwh * weekend;
  v += traits_.diurnal_amplitude * std::cos(kTwoPi * (h - traits_.peak_hour) / 24.0);
  v -= traits_.solar_depth * solar_bump(h);
  return std::clamp(v, traits_.floor_gkwh, traits_.cap_gkwh);
}

std::vector<double> GridModel::shape(Duration start, Duration duration,
                                     Duration step) const {
  GREENHPC_REQUIRE(duration.seconds() > 0.0, "trace duration must be positive");
  GREENHPC_REQUIRE(step.seconds() > 0.0, "trace step must be positive");
  const auto n = static_cast<std::size_t>(std::ceil(duration.seconds() / step.seconds()));
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = deterministic_component(start + step * static_cast<double>(i));
  }
  return out;
}

util::TimeSeries GridModel::generate(Duration start, Duration duration, Duration step,
                                     IntensityKind kind) {
  return generate(shape(start, duration, step), start, step, kind);
}

util::TimeSeries GridModel::generate(std::span<const double> shape, Duration start,
                                     Duration step, IntensityKind kind) {
  GREENHPC_REQUIRE(step.seconds() > 0.0, "trace step must be positive");

  // Exact OU discretization: x' = x*exp(-dt/tau) + sigma*sqrt(1-exp(-2dt/tau))*N(0,1).
  const double tau = traits_.ou_tau_hours * 3600.0;
  const double dt = step.seconds();
  const double decay = std::exp(-dt / tau);
  const double diffusion = traits_.ou_sigma * std::sqrt(1.0 - decay * decay);
  // Start the weather process in its stationary distribution.
  double ou = rng_.normal(0.0, traits_.ou_sigma);

  // Filled in place from the shape: a cached trace keeps no spare capacity.
  std::vector<double> values(shape.begin(), shape.end());
  for (double& v : values) {
    v = std::clamp(v + ou, traits_.floor_gkwh, traits_.cap_gkwh);
    if (kind == IntensityKind::Marginal) {
      // Marginal generation is fossil whenever demand sits above the
      // low-carbon floor, so the above-floor share is uplifted.
      v = traits_.floor_gkwh + (v - traits_.floor_gkwh) * traits_.marginal_uplift;
      v = std::min(v, traits_.cap_gkwh * traits_.marginal_uplift);
    }
    ou = ou * decay + diffusion * rng_.normal();
  }
  return util::TimeSeries(start, step, std::move(values));
}

RegionalTraces generate_european_traces(Duration start, Duration duration, Duration step,
                                        std::uint64_t seed, IntensityKind kind) {
  RegionalTraces bundle;
  for (Region r : all_regions()) {
    bundle.regions.push_back(r);
    // Mix the region index into the seed so regions are independent but the
    // bundle as a whole is reproducible from one seed.
    std::uint64_t mix = seed + 0x9e3779b97f4a7c15ull * (bundle.regions.size() + 1);
    GridModel model(r, util::splitmix64(mix));
    bundle.series.push_back(model.generate(start, duration, step, kind));
  }
  return bundle;
}

}  // namespace greenhpc::carbon
